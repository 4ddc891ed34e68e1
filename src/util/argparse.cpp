#include "util/argparse.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::util {

ArgParse::ArgParse(std::string prog, std::string description)
    : prog_(std::move(prog)), description_(std::move(description)) {}

ArgParse& ArgParse::add_option(const std::string& name, const std::string& help,
                               const std::string& default_value) {
  XLDS_REQUIRE_MSG(find(name) == nullptr, "option --" << name << " registered twice");
  options_.push_back(Option{name, help, default_value, /*is_flag=*/false, /*provided=*/false});
  return *this;
}

ArgParse& ArgParse::add_flag(const std::string& name, const std::string& help) {
  XLDS_REQUIRE_MSG(find(name) == nullptr, "flag --" << name << " registered twice");
  options_.push_back(Option{name, help, "", /*is_flag=*/true, /*provided=*/false});
  return *this;
}

ArgParse::Option* ArgParse::find(const std::string& name) {
  for (Option& o : options_)
    if (o.name == name) return &o;
  return nullptr;
}

const ArgParse::Option* ArgParse::find(const std::string& name) const {
  for (const Option& o : options_)
    if (o.name == name) return &o;
  return nullptr;
}

bool ArgParse::parse(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      out << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      err << prog_ << ": unexpected positional argument '" << arg << "'\n" << usage();
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Option* opt = find(name);
    if (opt == nullptr) {
      err << prog_ << ": unknown option --" << name << '\n' << usage();
      return false;
    }
    if (opt->is_flag) {
      if (has_value) {
        err << prog_ << ": flag --" << name << " does not take a value\n" << usage();
        return false;
      }
      opt->value = "1";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          err << prog_ << ": option --" << name << " requires a value\n" << usage();
          return false;
        }
        value = argv[++i];
      }
      opt->value = value;
    }
    opt->provided = true;
  }
  return true;
}

bool ArgParse::parse(int argc, const char* const* argv) {
  return parse(argc, argv, std::cout, std::cerr);
}

bool ArgParse::provided(const std::string& name) const {
  const Option* o = find(name);
  XLDS_REQUIRE_MSG(o != nullptr, "option --" << name << " was never registered");
  return o->provided;
}

std::string ArgParse::str(const std::string& name) const {
  const Option* o = find(name);
  XLDS_REQUIRE_MSG(o != nullptr, "option --" << name << " was never registered");
  return o->value;
}

bool ArgParse::flag(const std::string& name) const {
  const Option* o = find(name);
  XLDS_REQUIRE_MSG(o != nullptr && o->is_flag, "--" << name << " is not a registered flag");
  return o->provided;
}

double ArgParse::num(const std::string& name) const {
  const std::string v = str(name);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  XLDS_REQUIRE_MSG(end != v.c_str() && *end == '\0',
                   "--" << name << " expects a number, got '" << v << "'");
  return parsed;
}

std::int64_t ArgParse::integer(const std::string& name) const {
  const std::string v = str(name);
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  XLDS_REQUIRE_MSG(end != v.c_str() && *end == '\0',
                   "--" << name << " expects an integer, got '" << v << "'");
  return parsed;
}

std::uint64_t ArgParse::uinteger(const std::string& name) const {
  const std::int64_t v = integer(name);
  XLDS_REQUIRE_MSG(v >= 0, "--" << name << " expects a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

std::string ArgParse::usage() const {
  std::ostringstream os;
  os << "usage: " << prog_ << " [options]\n";
  if (!description_.empty()) os << "  " << description_ << '\n';
  os << "options:\n";
  for (const Option& o : options_) {
    std::string head = "  --" + o.name + (o.is_flag ? "" : " <value>");
    os << head;
    for (std::size_t i = head.size(); i < 26; ++i) os << ' ';
    os << o.help;
    if (!o.is_flag && !o.value.empty()) os << " (default: " << o.value << ')';
    os << '\n';
  }
  os << "  --help                  show this message\n";
  return os.str();
}

void add_bench_options(ArgParse& args, std::uint64_t default_seed,
                       const std::string& default_out) {
  args.add_option("seed", "experiment seed (results are a pure function of it)",
                  std::to_string(default_seed));
  args.add_option("threads", "parallel pool width; 0 = XLDS_THREADS / hardware", "0");
  args.add_option("out", "result file path", default_out);
}

void apply_bench_options(const ArgParse& args) {
  if (args.provided("threads")) set_parallel_threads(static_cast<std::size_t>(args.uinteger("threads")));
}

}  // namespace xlds::util
