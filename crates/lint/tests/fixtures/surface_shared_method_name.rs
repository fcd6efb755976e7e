// @file crates/runtime/src/decode.rs
#![forbid(unsafe_code)]
pub struct DecodeSim {
    capacity_cells: usize,
}

impl DecodeSim {
    pub fn new(kv_pus: usize) -> Self {
        let capacity_cells = kv_pus * 64;
        DecodeSim { capacity_cells }
    }

    pub fn fits(&self, cells: usize) -> bool {
        cells <= self.capacity_cells
    }

    pub fn capacity_cells(&self) -> usize {
        self.capacity_cells
    }
}
// @file crates/runtime/src/batch.rs
#![forbid(unsafe_code)]
pub struct BatchScheduler {
    capacity_cells: usize,
}

impl BatchScheduler {
    pub fn new(capacity_cells: usize) -> Self {
        BatchScheduler { capacity_cells }
    }

    pub fn capacity_cells(&self) -> usize {
        self.capacity_cells
    }
}
// @file crates/runtime/src/bin/serve.rs
use hyflex_runtime::batch::BatchScheduler;
use hyflex_runtime::decode::DecodeSim;

fn main() {
    let sim = DecodeSim::new(2);
    let scheduler = BatchScheduler::new(128);
    println!("{}", sim.fits(BatchScheduler::capacity_cells(&scheduler)));
}
