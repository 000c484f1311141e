//! The traced binary: the same program with the counting allocator installed.
//! It only runs `--trace 1`, so no end-to-end number is ever taken through it.

#[global_allocator]
static ALLOC: lwbench::alloc::CountingAlloc = lwbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(lwbench::cli::main(true));
}
