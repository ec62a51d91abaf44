//! Shared helpers for the Criterion benchmarks.
//!
//! Bench targets `b1_…` through `b9_…` time the code paths behind the
//! experiment tables E1–E9 that `cargo run --release --example
//! experiments` prints (one target per table); `b10_…` onwards cover the
//! store, world pool, SFI, journal, netstack and chaos engine. Criterion
//! measures host wall-clock of the real code paths; the deterministic
//! simulated-cycle tables come from the example.

use paramecium::prelude::*;

/// Builds a counter object used by the invocation benches.
pub fn counter_obj() -> ObjRef {
    ObjectBuilder::new("counter")
        .state(0i64)
        .interface("ctr", |i| {
            i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let by = args[0].as_int()?;
                this.with_state(|n: &mut i64| {
                    *n += by;
                    Ok(Value::Int(*n))
                })
            })
        })
        .build()
}

/// Builds an echo object (bytes in → bytes out) for marshalling benches.
pub fn echo_obj() -> ObjRef {
    ObjectBuilder::new("echo")
        .interface("echo", |i| {
            i.method("echo", &[TypeTag::Bytes], TypeTag::Bytes, |_, args| {
                Ok(args[0].clone())
            })
        })
        .build()
}

/// A booted world with an echo service registered at `/svc/echo` and one
/// user domain; returns the world and the user domain id.
pub fn world_with_echo() -> (World, DomainId) {
    let world = World::boot();
    world
        .nucleus
        .register(KERNEL_DOMAIN, "/svc/echo", echo_obj())
        .unwrap();
    let app = world
        .nucleus
        .create_domain("bench-app", KERNEL_DOMAIN, [])
        .unwrap();
    let id = app.id;
    (world, id)
}
