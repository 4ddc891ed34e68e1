#include "kernels/dispatch.hpp"

namespace xlds::kernels {

Isa runtime_isa() noexcept {
#if XLDS_KERNELS_HAVE_AVX2
  static const Isa isa = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kBaseline;
  }();
  return isa;
#else
  return Isa::kBaseline;
#endif
}

const char* isa_name() noexcept {
  if (runtime_isa() == Isa::kAvx2) return "avx2";
  return XLDS_KERNELS_HAVE_AVX2 ? "sse2" : "baseline";
}

bool built_native() noexcept {
#if defined(XLDS_KERNELS_NATIVE)
  return true;
#else
  return false;
#endif
}

}  // namespace xlds::kernels
