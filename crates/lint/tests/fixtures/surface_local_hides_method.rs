// @file crates/baselines/src/system.rs
#![forbid(unsafe_code)]
pub struct SystemBuilder {
    name: String,
}

impl SystemBuilder {
    pub fn new(name: &str) -> Self {
        SystemBuilder {
            name: name.to_string(),
        }
    }

    pub fn backend_name(&self) -> &str {
        &self.name
    }
}
// @file crates/bench/src/bin/fig22.rs
use hyflex_baselines::system::SystemBuilder;

fn main() {
    let backend_name = std::env::args().nth(1).unwrap_or_default();
    let _builder = SystemBuilder::new(&backend_name);
    println!("{backend_name}");
}
