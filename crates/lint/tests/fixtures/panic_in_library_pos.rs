pub fn second(xs: &[f64]) -> f64 {
    xs[1]
}
