// oeb-lint: allow(nan-partial-cmp, stale-suppression) -- migrating: comparison being rewritten
pub fn both_zero(a: u32, b: u32) -> bool {
    a == 0 && b == 0
}
