// Machine stamp for the BENCH_*.json files: a wall time counts only together
// with the machine that produced it (core count, CPU, compiler, build type).
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

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

/// {"hardware_threads": N, "cpu": ..., "compiler": ..., "build_type": ...}
inline std::string machine_json() {
  std::ostringstream os;
  os << "{\"hardware_threads\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << cpu_model() << "\", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << XLDS_BUILD_TYPE << "\"}";
  return os.str();
}

}  // namespace xlds::bench
