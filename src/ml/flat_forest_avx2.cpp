// Width-8 AVX2 batch traversal for FlatForest. This translation unit is the
// only one compiled with -mavx2 (plus -ffp-contract=off; see below) and is
// only in the build when the PERDNN_SIMD CMake option is ON — everything
// else links against the scalar fallback in flat_forest.cpp.
//
// Bit-identity with FlatForest::predict_row rests on three properties:
//   1. Child selection uses _CMP_LE_OQ, which is exactly the scalar
//      `features[f] <= thr[node]` — ordered, quiet, false on NaN.
//   2. Each lane accumulates its trees in the same order with the same
//      arithmetic (separate mul and add for the GBT shrinkage step;
//      -ffp-contract=off keeps the compiler from fusing them into an FMA,
//      which would round differently from the scalar build).
//   3. The kAverage division by the tree count happens once at the end,
//      as in the scalar path.
#ifdef PERDNN_SIMD_AVX2

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "ml/flat_forest.hpp"

namespace perdnn::ml::detail {

namespace {

// Compress two 4x64-bit compare masks into one 8x32-bit mask, lane i of the
// result mirroring double-lane i of (lo | hi).
inline __m256i compress_masks(__m256d lo, __m256d hi) {
  const __m256i take_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128i lo32 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lo), take_even));
  const __m128i hi32 = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(hi), take_even));
  return _mm256_set_m128i(hi32, lo32);
}

// _mm256_i32gather_pd over 8-byte doubles, as the masked gather with a
// zeroed source and every lane enabled. The unmasked intrinsic passes GCC
// an undefined source, which -Wmaybe-uninitialized reports on every call.
inline __m256d gather_pd(const double* base, __m128i index) {
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, index, all_lanes,
                                  8);
}

}  // namespace

void predict_batch_avx2(const ForestKernelView& view, const double* rows,
                        std::size_t stride, std::size_t n, double* out) {
  const __m256i lane_ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i row_offsets = _mm256_mullo_epi32(
      lane_ids, _mm256_set1_epi32(static_cast<int>(stride)));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i minus_one = _mm256_set1_epi32(-1);
  const __m256i one = _mm256_set1_epi32(1);
  const bool boosted = view.combine == 2;  // Combine::kBoosted
  const __m256d init = _mm256_set1_pd(boosted ? view.base : 0.0);
  const __m256d shrinkage = _mm256_set1_pd(view.shrinkage);

  // Trees are walked six at a time over each 8-row block. A single
  // walker's step is a loop-carried dependency chain of gathers
  // (node -> threshold/feature gather -> compare -> next node), so one
  // chain leaves the gather units mostly idle; six independent walkers
  // overlap their latencies and bound the throughput by gather bandwidth
  // instead. The leaf values are accumulated strictly in tree order after
  // the group finishes, so the FP accumulation order — and therefore the
  // result — is exactly the scalar path's.
  constexpr std::size_t kTreeGroup = 6;
  for (std::size_t r0 = 0; r0 < n; r0 += 8) {
    const double* block = rows + r0 * stride;
    __m256d acc_lo = init;
    __m256d acc_hi = init;
    for (std::size_t t0 = 0; t0 < view.num_trees; t0 += kTreeGroup) {
      const std::size_t g = view.num_trees - t0 < kTreeGroup
                                ? view.num_trees - t0
                                : kTreeGroup;
      __m256i node[kTreeGroup];
      __m256i feat[kTreeGroup];
      unsigned live = (1u << g) - 1u;
      for (std::size_t k = 0; k < g; ++k) {
        node[k] = _mm256_set1_epi32(view.roots[t0 + k]);
        feat[k] = _mm256_i32gather_epi32(view.feature, node[k], 4);
      }
      while (live != 0) {
        for (std::size_t k = 0; k < g; ++k) {
          if ((live & (1u << k)) == 0) continue;
          // A lane parks on its leaf (feat < 0) while the others keep
          // stepping; the blend below freezes parked lanes in place.
          const __m256i active = _mm256_cmpgt_epi32(feat[k], minus_one);
          if (_mm256_testz_si256(active, active)) {
            live &= ~(1u << k);
            continue;
          }
          const __m128i node_lo = _mm256_castsi256_si128(node[k]);
          const __m128i node_hi = _mm256_extracti128_si256(node[k], 1);
          const __m256d thr_lo = gather_pd(view.threshold, node_lo);
          const __m256d thr_hi = gather_pd(view.threshold, node_hi);
          // Parked lanes have feat == -1; clamp to 0 so their (discarded)
          // feature gather stays in bounds.
          const __m256i fidx =
              _mm256_add_epi32(row_offsets, _mm256_max_epi32(feat[k], zero));
          const __m256d val_lo =
              gather_pd(block, _mm256_castsi256_si128(fidx));
          const __m256d val_hi =
              gather_pd(block, _mm256_extracti128_si256(fidx, 1));
          const __m256d le_lo = _mm256_cmp_pd(val_lo, thr_lo, _CMP_LE_OQ);
          const __m256d le_hi = _mm256_cmp_pd(val_hi, thr_hi, _CMP_LE_OQ);
          // BFS layout puts the right child at left + 1, so go-right is
          // just left + !(value <= threshold) — no second child gather.
          const __m256i left = _mm256_i32gather_epi32(view.left, node[k], 4);
          const __m256i le32 = compress_masks(le_lo, le_hi);
          const __m256i next =
              _mm256_add_epi32(left, _mm256_andnot_si256(le32, one));
          node[k] = _mm256_blendv_epi8(node[k], next, active);
          feat[k] = _mm256_i32gather_epi32(view.feature, node[k], 4);
        }
      }
      for (std::size_t k = 0; k < g; ++k) {
        const __m256d leaf_lo =
            gather_pd(view.threshold, _mm256_castsi256_si128(node[k]));
        const __m256d leaf_hi =
            gather_pd(view.threshold, _mm256_extracti128_si256(node[k], 1));
        if (boosted) {
          acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(shrinkage, leaf_lo));
          acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(shrinkage, leaf_hi));
        } else {
          acc_lo = _mm256_add_pd(acc_lo, leaf_lo);
          acc_hi = _mm256_add_pd(acc_hi, leaf_hi);
        }
      }
    }
    if (view.combine == 1) {  // Combine::kAverage
      const __m256d count =
          _mm256_set1_pd(static_cast<double>(view.num_trees));
      acc_lo = _mm256_div_pd(acc_lo, count);
      acc_hi = _mm256_div_pd(acc_hi, count);
    }
    _mm256_storeu_pd(out + r0, acc_lo);
    _mm256_storeu_pd(out + r0 + 4, acc_hi);
  }
}

}  // namespace perdnn::ml::detail

#endif  // PERDNN_SIMD_AVX2
