//! The end-to-end binary: system allocator, spans off.

fn main() {
    std::process::exit(lwbench::cli::main(false));
}
