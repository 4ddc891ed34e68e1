// xlds_perfbench: runs one benchmark workload and writes its raw
// measurements.  Normally started by perfbench/run.py, which pins the thread
// count, sizes the run and picks the instance order from its --seconds and
// --seed, and computes the metrics:
//
//   xlds_perfbench --workload serve_drift --instances 3,1,2 --rounds 4
//       --trace 1 --out raw.json --trace-out trace.json --workdir work
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_obj(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_str(fields[i].first) + ": " + fields[i].second;
  return out + "}";
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i == 0 ? "" : ", ") + json_num(values[i]);
  return out + "]";
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const long kb = std::max(self.ru_maxrss, children.ru_maxrss);  // KiB on Linux
  return static_cast<double>(kb) / 1024.0;
}

void write_raw(const std::string& path, const Options& opt, const RawResult& raw) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string checked = "[";
  for (std::size_t i = 0; i < raw.checked.size(); ++i) {
    const Checked& c = raw.checked[i];
    checked += (i == 0 ? "\n    " : ",\n    ") +
               json_obj({{"key", json_str(c.key)},
                         {"output", json_obj(c.output)}});
  }
  checked += "]";
  Fields layer;
  for (const auto& [name, value] : raw.layer) layer.emplace_back(name, json_num(value));
  out << json_obj({{"workload", json_str(opt.workload)},
                   {"trace", opt.trace ? "true" : "false"},
                   {"setup_s", json_list(raw.setup_s)},
                   {"call_s", json_list(raw.call_s)},
                   {"round_s", json_list(raw.round_s)},
                   {"peak_rss_mb", json_num(peak_rss_mb())},
                   {"passes", std::to_string(raw.passes)},
                   {"untraced_s", json_num(raw.untraced_s)},
                   {"traced_s", json_num(raw.traced_s)},
                   {"layer", json_obj(layer)},
                   {"checked", checked}})
      << "\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

namespace {

std::vector<std::uint64_t> parse_instances(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stoull(item));
  if (out.empty()) throw std::invalid_argument("--instances needs at least one seed");
  return out;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") opt.workload = value;
    else if (key == "--instances") opt.instances = parse_instances(value);
    else if (key == "--rounds") opt.rounds = std::stoul(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--out") opt.out = value;
    else if (key == "--trace-out") opt.trace_out = value;
    else if (key == "--workdir") opt.workdir = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (opt.workload.empty() || opt.instances.empty() || opt.out.empty() || opt.workdir.empty())
    throw std::invalid_argument("need --workload, --instances, --out and --workdir");
  if (opt.trace && opt.trace_out.empty()) throw std::invalid_argument("--trace 1 needs --trace-out");
  if (opt.rounds == 0) throw std::invalid_argument("--rounds must be positive");
  return opt;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    Tracer tracer(opt.trace);
    RawResult raw;
    if (opt.workload == "serve_drift") raw = run_serve_drift(opt, tracer);
    else if (opt.workload == "hdc_fit") raw = run_hdc_fit(opt, tracer);
    else if (opt.workload == "dse_sweep") raw = run_dse_sweep(opt, tracer);
    else throw std::invalid_argument("unknown workload " + opt.workload);
    write_raw(opt.out, opt, raw);
    if (opt.trace) tracer.write_chrome(opt.trace_out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "xlds_perfbench: " << e.what() << "\n";
    return 1;
  }
}
