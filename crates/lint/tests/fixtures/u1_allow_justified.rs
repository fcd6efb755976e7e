#![forbid(unsafe_code)]
// hyflex-lint: allow(U1) — fixture: reached through a macro the scan cannot see
pub fn macro_target() -> u32 {
    7
}
