// Runtime SIMD dispatch for the batched inference kernels.
//
// Kernels with a vector variant (ml::FlatForest::predict_batch_into) are
// compiled twice: a portable scalar version built unconditionally, and an
// AVX2 version built only when the toolchain supports it and the
// PERDNN_SIMD CMake option is ON (the default). Which one runs is decided
// once per process:
//
//   compiled in (PERDNN_SIMD=ON + compiler support)
//     AND the CPU reports AVX2 at startup
//     AND not disabled by the PERDNN_NO_SIMD environment variable
//     AND not overridden by set_enabled()
//
// Every vector kernel is required to be *bit-identical* to its scalar
// fallback — same comparisons, same per-tree accumulation order, no FMA
// contraction — so the toggle, like the thread count, is
// byte-identity-neutral. tests/ml/flat_forest_simd_test.cpp enforces the
// kernel contract and tests/sim/shard_determinism_test.cpp the end-to-end
// one.
//
// Resolution: PERDNN_NO_SIMD (any non-empty value other than "0") disables
// the vector paths at startup; set_enabled() overrides either way but can
// never enable what the hardware or build lacks. Reads are lock-free; toggling while kernels are running in
// parallel regions is not supported.
#pragma once

namespace perdnn::simd {

/// True when this binary contains the AVX2 kernels (PERDNN_SIMD=ON and the
/// compiler accepted -mavx2). Constant per build.
bool compiled_in();

/// True when the CPU executing this process supports AVX2. Constant per
/// process.
bool cpu_supported();

/// True when vector kernels should be used: compiled in, CPU-supported and
/// not switched off.
bool enabled();

/// Explicit override (tests, `--no-simd` style flags, equivalence benches).
/// Enabling is clamped to compiled_in() && cpu_supported().
void set_enabled(bool on);

/// "avx2" when enabled() is true, "scalar" otherwise — recorded in bench
/// JSON artifacts so regression gates know which kernel produced a number.
const char* active_kernel();

}  // namespace perdnn::simd
