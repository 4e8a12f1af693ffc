//! Standing proof that the rules clippy holds for the workspace still
//! fire. Each function below commits one pattern under an `#[expect]` of
//! the lint that must catch it, so `cargo clippy --workspace
//! --all-targets -- -D warnings` fails with `unfulfilled_lint_expectations`
//! if the lint stops catching the pattern or a `clippy.toml` entry (the
//! D1 clock, sleep and `SystemTime`) goes. An `#[expect]` turns its lint
//! on where it stands, so no deny line is needed here, and none is
//! proved: nasd-lint's F1 and C1 require the deny lines in the crates
//! they guard.

#![forbid(unsafe_code)]

#[expect(clippy::unwrap_used, reason = "fixture: P1 must fire")]
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "fixture: P1 must fire")]
pub fn expect(x: Option<u8>) -> u8 {
    x.expect("present")
}

#[expect(clippy::panic, reason = "fixture: P1 must fire")]
pub fn panic() {
    panic!("request failed");
}

#[expect(clippy::unreachable, reason = "fixture: P1 must fire")]
pub fn unreachable() {
    unreachable!("request failed");
}

#[expect(clippy::todo, reason = "fixture: P1 must fire")]
pub fn todo() {
    todo!("request handler");
}

#[expect(clippy::unimplemented, reason = "fixture: P1 must fire")]
pub fn unimplemented() {
    unimplemented!("request handler");
}

#[expect(clippy::indexing_slicing, reason = "fixture: P1 must fire")]
pub fn index(buf: &[u8]) -> u8 {
    buf[1]
}

#[expect(clippy::indexing_slicing, reason = "fixture: P1 must fire")]
pub fn slice(buf: &[u8]) -> &[u8] {
    &buf[1..]
}

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "fixture: S0 must fire"
)]
pub mod reasonless {
    #[allow(dead_code)]
    fn unused() {}
}

#[expect(clippy::cast_possible_truncation, reason = "fixture: C1 must fire")]
pub fn narrow(len: u64) -> u16 {
    len as u16
}

#[expect(clippy::disallowed_methods, reason = "fixture: D1 must fire")]
pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "fixture: D1 must fire")]
pub fn sleep() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[expect(clippy::disallowed_types, reason = "fixture: D1 must fire")]
pub fn system_time() -> std::time::SystemTime {
    std::time::SystemTime::UNIX_EPOCH
}
