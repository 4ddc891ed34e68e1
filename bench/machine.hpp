// Machine stamp for the BENCH_*.json files: a wall time counts only together
// with the machine that produced it (core count, CPU, compiler, build type,
// whether the kernel TUs were built -march=native, and the vector tier the
// run-time dispatched kernels picked).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "kernels/dispatch.hpp"

#ifndef XLDS_BUILD_TYPE
#define XLDS_BUILD_TYPE "unknown"
#endif

namespace xlds::bench {

/// The "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  return "unknown";
}

/// {"hardware_threads": N, "cpu": ..., "compiler": ..., "build_type": ...,
///  "xlds_native": true|false, "isa": "avx2"|"sse2"|"baseline"}
inline std::string machine_json() {
  std::ostringstream os;
  os << "{\"hardware_threads\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << cpu_model() << "\", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << XLDS_BUILD_TYPE << "\", \"xlds_native\": "
     << (kernels::built_native() ? "true" : "false") << ", \"isa\": \"" << kernels::isa_name()
     << "\"}";
  return os.str();
}

}  // namespace xlds::bench
