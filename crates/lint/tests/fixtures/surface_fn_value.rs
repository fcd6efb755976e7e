// @file crates/tensor/src/scale.rs
#![forbid(unsafe_code)]
pub fn double(x: u32) -> u32 {
    2 * x
}

pub struct Scale;

impl Scale {
    pub fn halve(x: u32) -> u32 {
        x / 2
    }
}
// @file crates/bench/src/bin/fig02.rs
use hyflex_tensor::scale::{double, Scale};

fn main() {
    let xs = [1u32, 2, 3];
    let doubled: Vec<u32> = xs.iter().copied().map(double).collect();
    let halved: Vec<u32> = doubled.into_iter().map(Scale::halve).collect();
    println!("{halved:?}");
}
