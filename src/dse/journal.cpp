#include "dse/journal.hpp"

#include <cstring>
#include <filesystem>

#include "dse/fidelity.hpp"
#include "dse/space.hpp"
#include "util/error.hpp"
#include "util/record_log.hpp"

namespace xlds::dse {

namespace {

constexpr char kMagic[8] = {'X', 'L', 'D', 'S', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kVersionLegacy3Tier = 1;
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

using util::append_raw;
using util::read_raw;

std::string encode_body(const Journal::Record& r) {
  std::string body;
  body.reserve(64 + r.fom.note.size());
  append_raw(body, r.key);
  append_raw(body, r.fidelity);
  append_raw(body, static_cast<std::uint8_t>(r.fom.feasible ? 1 : 0));
  body.append(3, '\0');
  append_raw(body, r.fom.latency);
  append_raw(body, r.fom.energy);
  append_raw(body, r.fom.area_mm2);
  append_raw(body, r.fom.accuracy);
  append_raw(body, r.uncertainty);
  append_raw(body, static_cast<std::uint32_t>(r.fom.note.size()));
  body.append(r.fom.note);
  return body;
}

bool decode_body(const std::string& body, std::uint32_t version, Journal::Record& r) {
  std::size_t pos = 0;
  std::uint8_t feasible = 0;
  std::uint32_t note_len = 0;
  if (!read_raw(body, pos, r.key) || !read_raw(body, pos, r.fidelity) ||
      !read_raw(body, pos, feasible))
    return false;
  pos += 3;  // padding
  if (pos > body.size() || !read_raw(body, pos, r.fom.latency) ||
      !read_raw(body, pos, r.fom.energy) || !read_raw(body, pos, r.fom.area_mm2) ||
      !read_raw(body, pos, r.fom.accuracy))
    return false;
  r.uncertainty = 0.0;
  if (version >= kVersion && !read_raw(body, pos, r.uncertainty)) return false;
  if (!read_raw(body, pos, note_len)) return false;
  if (pos + note_len != body.size()) return false;
  r.fom.feasible = feasible != 0;
  r.fom.note.assign(body, pos, note_len);
  // Legacy tiers were numbered before the surrogate rung existed; shifting
  // them is exactly the enum renumbering, so FOM semantics are unchanged.
  if (version == kVersionLegacy3Tier)
    r.fidelity += static_cast<std::uint32_t>(Fidelity::kAnalytic);
  return true;
}

struct Parsed {
  std::uint32_t version = 0;
  std::uint64_t job_hash = 0;
  std::vector<Journal::Record> records;
  std::size_t good_end = 0;  ///< byte offset past the last intact record
};

/// Parse header + intact record prefix of raw journal bytes.  Never touches
/// the filesystem; PreconditionError on a bad magic or unknown version.
Parsed parse(const std::string& contents, const std::string& path) {
  XLDS_REQUIRE_MSG(contents.size() >= kHeaderSize &&
                       std::memcmp(contents.data(), kMagic, sizeof kMagic) == 0,
                   "'" << path << "' is not an XLDS journal");
  Parsed out;
  std::size_t pos = sizeof kMagic;
  read_raw(contents, pos, out.version);
  read_raw(contents, pos, out.job_hash);
  XLDS_REQUIRE_MSG(out.version == kVersion || out.version == kVersionLegacy3Tier,
                   "journal '" << path << "' has format version " << out.version
                               << ", this build reads " << kVersionLegacy3Tier << " and "
                               << kVersion);

  out.good_end = util::scan_records(contents, pos, [&](const std::string& body) {
    Journal::Record r;
    if (!decode_body(body, out.version, r)) return false;
    out.records.push_back(std::move(r));
    return true;
  });
  return out;
}

std::string header_bytes(std::uint64_t job_hash) {
  std::string header;
  header.append(kMagic, sizeof kMagic);
  append_raw(header, kVersion);
  append_raw(header, job_hash);
  return header;
}

}  // namespace

Journal::Journal(std::string path, std::uint64_t job_hash)
    : path_(std::move(path)), job_hash_(job_hash) {
  XLDS_REQUIRE(!path_.empty());

  std::string contents;
  open_info_.existed = util::read_file_bytes(path_, contents);

  if (open_info_.existed) {
    Parsed parsed = parse(contents, path_);
    XLDS_REQUIRE_MSG(parsed.job_hash == job_hash_,
                     "journal '" << path_ << "' belongs to a different job "
                                 << "(space/application/fidelity settings changed); "
                                 << "delete it or point --journal elsewhere");
    records_ = std::move(parsed.records);
    open_info_.replayed = records_.size();
    open_info_.dropped_bytes = contents.size() - parsed.good_end;

    if (parsed.version != kVersion) {
      // Upgrade in place: re-frame every intact record in the v2 layout and
      // atomically swap the file, so after this point only one version ever
      // exists on disk.  The torn tail (if any) is dropped by construction.
      std::string fresh = header_bytes(job_hash_);
      for (const Record& r : records_) util::append_record(fresh, encode_body(r));
      const std::string tmp = path_ + ".upgrade.tmp";
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        XLDS_REQUIRE_MSG(out.is_open(), "cannot write journal upgrade '" << tmp << "'");
        out.write(fresh.data(), static_cast<std::streamsize>(fresh.size()));
        out.flush();
        XLDS_REQUIRE_MSG(out.good(), "journal upgrade write to '" << tmp << "' failed");
      }
      std::filesystem::rename(tmp, path_);
      open_info_.upgraded = true;
    } else if (open_info_.dropped_bytes > 0) {
      std::filesystem::resize_file(path_, parsed.good_end);
    }
  }

  out_.open(path_, std::ios::binary | std::ios::app);
  XLDS_REQUIRE_MSG(out_.is_open(), "cannot open journal '" << path_ << "' for append");
  if (!open_info_.existed) {
    const std::string header = header_bytes(job_hash_);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
  }
}

void Journal::append(const Record& r) {
  std::string framed;
  framed.reserve(76 + r.fom.note.size());
  util::append_record(framed, encode_body(r));
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
  XLDS_REQUIRE_MSG(out_.good(), "journal append to '" << path_ << "' failed");
  ++appended_;
}

Journal::InspectInfo Journal::inspect(const std::string& path) {
  std::string contents;
  XLDS_REQUIRE_MSG(util::read_file_bytes(path, contents), "cannot read journal '" << path << "'");
  Parsed parsed = parse(contents, path);
  InspectInfo info;
  info.version = parsed.version;
  info.job_hash = parsed.job_hash;
  info.records = std::move(parsed.records);
  info.dropped_bytes = contents.size() - parsed.good_end;
  return info;
}

}  // namespace xlds::dse
