//! The paper's evaluation (`mggcn_bench::paper`), printed: every table, or
//! those whose id contains the first argument
//! (`cargo bench -p mggcn-bench --bench paper -- fig09`).

use mggcn_bench::paper::TABLES;

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-')).unwrap_or_default();
    for (_, table) in TABLES.iter().filter(|(id, _)| id.contains(filter.as_str())) {
        println!("{}", table().render());
    }
}
