// Dispatch policy for the compute-kernel layer (src/kernels/).
//
// Every kernel in this layer ships two implementations:
//
//   * a *scalar reference* (`*_ref`), written as the straightforward loop the
//     rest of the codebase used before this layer existed.  References are the
//     semantic ground truth: tests assert the optimised path reproduces them
//     bit-exactly (bit-packed Hamming, sequence-compatible samplers) or within
//     a documented ULP bound (blocked MVM).
//   * an *optimised default*, structured so the compiler can vectorise it:
//     bit-parallel word operations (XOR + popcount), restrict-qualified
//     contiguous spans, column-tiled accumulation, and branch-free inner
//     loops.  The kernel TUs are compiled at -O3 (see src/kernels/CMakeLists);
//     configuring with -DXLDS_NATIVE=ON additionally builds them with
//     -march=native.  Only the kernel TUs get these flags — the portable
//     build stays the CI default and headers never require any ISA.
//
// Dispatch is resolved at compile time inside the kernel TUs: the public
// entry points (kernels::hamming, kernels::matvec_t, ...) are always the
// optimised path, and the references stay exported for tests and the
// bench-smoke CI gate (which fails the build if optimised < reference).
// The one exception is the crossbar nodal solver (xbar/nodal_solver.cpp),
// whose factor and substitution kernels are compiled for SSE2 and AVX2 and
// picked at run time by runtime_isa(), so a portable build still runs 4-wide
// where the CPU allows; every tier writes the same bytes.
//
// Determinism contract (inherited from util/parallel): a kernel's output is a
// pure function of its inputs — no hidden state, no thread-count dependence.
// Samplers document their draw sequence relative to util::Rng so call sites
// know whether swapping a per-call loop for a block call preserves golden
// values (fill_* do; fill_normal_fast defines its own sequence).
#pragma once

// x86 builds also carry target("avx2") instantiations of the run-time
// dispatched kernels (see runtime_isa()).
#if defined(__x86_64__) || defined(__i386__)
#define XLDS_KERNELS_HAVE_AVX2 1
#else
#define XLDS_KERNELS_HAVE_AVX2 0
#endif

namespace xlds::kernels {

/// Vector tiers of the run-time dispatched kernels.
enum class Isa { kBaseline, kAvx2 };

/// The widest tier the running CPU supports, detected once per process.
Isa runtime_isa() noexcept;

/// Name of runtime_isa() — "avx2", "sse2" (the x86-64 baseline) or
/// "baseline" — shown by benches and stamped into the BENCH_*.json files.
const char* isa_name() noexcept;

/// True when the kernel TUs were built with -march=native (XLDS_NATIVE=ON).
bool built_native() noexcept;

}  // namespace xlds::kernels
