// @file crates/transformer/src/residual.rs
#![forbid(unsafe_code)]
pub struct Residual {
    width: u32,
}

impl Residual {
    pub fn new(width: u32) -> Self {
        Residual { width }
    }

    pub fn inner(&self) -> u32 {
        self.width
    }
}
// @file crates/transformer/src/block.rs
#![forbid(unsafe_code)]
use crate::residual::Residual;

macro_rules! impl_named {
    ($fn_name:ident, $inner:ident) => {
        pub fn $fn_name(&self) -> u32 {
            self.part.$inner()
        }
    };
}

pub struct Block {
    part: Residual,
}

impl Block {
    pub fn new() -> Self {
        Block {
            part: Residual::new(4),
        }
    }

    impl_named!(named, inner);
}
// @file crates/bench/src/bin/fig11.rs
fn main() {
    println!("{}", hyflex_transformer::block::Block::new().named());
}
