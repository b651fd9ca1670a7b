// oeb-lint: allow-file(panic-in-library) -- stale: this crate is no longer a kernel crate
use std::cmp::Ordering;

pub fn compare(a: f64, b: f64) -> Ordering {
    // oeb-lint: allow(nan-partial-cmp) -- inputs are pre-filtered finite values
    a.partial_cmp(&b).unwrap()
}

// oeb-lint: allow(nan-partial-cmp) -- stale: the comparison moved to integers long ago
pub fn both_zero(a: u32, b: u32) -> bool {
    a == 0 && b == 0
}

// oeb-lint: allow(no-such-rule) -- the rule name is a typo
pub fn id(x: u32) -> u32 {
    x
}
