#include "dse/result_cache.hpp"

#include <cstring>
#include <filesystem>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/record_log.hpp"

namespace xlds::dse {

std::uint64_t cache_point_hash(const core::DesignPoint& p) {
  std::uint64_t h = util::fnv1a64("xlds-point-v1", 13);
  const auto mix = [&h](std::uint32_t v) { h = util::fnv1a64(&v, sizeof v, h); };
  mix(static_cast<std::uint32_t>(p.device));
  mix(static_cast<std::uint32_t>(p.arch));
  mix(static_cast<std::uint32_t>(p.algo));
  return util::fnv1a64(p.application.data(), p.application.size(), h);
}

namespace {

constexpr char kMagic[8] = {'X', 'L', 'D', 'S', 'R', 'C', 'H', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
constexpr std::uint8_t kRecResult = 1;
constexpr std::uint8_t kRecSession = 2;

using util::append_raw;
using util::read_raw;

std::string encode_result(std::uint64_t space_hash, std::uint64_t point_hash,
                          std::uint32_t tier, const core::Fom& fom) {
  std::string body;
  body.reserve(64 + fom.note.size());
  append_raw(body, kRecResult);
  append_raw(body, space_hash);
  append_raw(body, point_hash);
  append_raw(body, tier);
  append_raw(body, static_cast<std::uint8_t>(fom.feasible ? 1 : 0));
  body.append(3, '\0');
  append_raw(body, fom.latency);
  append_raw(body, fom.energy);
  append_raw(body, fom.area_mm2);
  append_raw(body, fom.accuracy);
  append_raw(body, static_cast<std::uint32_t>(fom.note.size()));
  body.append(fom.note);
  return body;
}

bool decode_result(const std::string& body, ResultCache::ResultRecord& r) {
  std::size_t pos = 1;  // past the type byte
  std::uint8_t feasible = 0;
  std::uint32_t note_len = 0;
  if (!read_raw(body, pos, r.space_hash) || !read_raw(body, pos, r.point_hash) ||
      !read_raw(body, pos, r.tier) || !read_raw(body, pos, feasible))
    return false;
  pos += 3;  // padding
  if (pos > body.size() || !read_raw(body, pos, r.fom.latency) ||
      !read_raw(body, pos, r.fom.energy) || !read_raw(body, pos, r.fom.area_mm2) ||
      !read_raw(body, pos, r.fom.accuracy) || !read_raw(body, pos, note_len))
    return false;
  if (pos + note_len != body.size()) return false;
  r.fom.feasible = feasible != 0;
  r.fom.note.assign(body, pos, note_len);
  return true;
}

std::string encode_session(std::uint64_t space_hash, std::uint64_t hits,
                           std::uint64_t misses) {
  std::string body;
  append_raw(body, kRecSession);
  append_raw(body, space_hash);
  append_raw(body, hits);
  append_raw(body, misses);
  return body;
}

bool decode_session(const std::string& body, ResultCache::SessionRecord& s) {
  std::size_t pos = 1;
  return read_raw(body, pos, s.space_hash) && read_raw(body, pos, s.hits) &&
         read_raw(body, pos, s.misses) && pos == body.size();
}

struct Parsed {
  std::uint32_t version = 0;
  std::vector<ResultCache::ResultRecord> results;
  std::vector<ResultCache::SessionRecord> sessions;
  std::size_t good_end = 0;
};

Parsed parse(const std::string& contents, const std::string& path) {
  XLDS_REQUIRE_MSG(contents.size() >= kHeaderSize &&
                       std::memcmp(contents.data(), kMagic, sizeof kMagic) == 0,
                   "'" << path << "' is not an XLDS result cache");
  Parsed out;
  std::size_t pos = sizeof kMagic;
  read_raw(contents, pos, out.version);
  XLDS_REQUIRE_MSG(out.version == kVersion, "result cache '" << path << "' has format version "
                                                             << out.version << ", this build reads "
                                                             << kVersion);
  out.good_end = util::scan_records(contents, pos, [&](const std::string& body) {
    if (body.empty()) return false;
    const std::uint8_t type = static_cast<std::uint8_t>(body[0]);
    if (type == kRecResult) {
      ResultCache::ResultRecord r;
      if (!decode_result(body, r)) return false;
      out.results.push_back(std::move(r));
    } else if (type == kRecSession) {
      ResultCache::SessionRecord s;
      if (!decode_session(body, s)) return false;
      out.sessions.push_back(s);
    } else {
      return false;  // unknown record type: written by a future version? stop here
    }
    return true;
  });
  return out;
}

}  // namespace

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {
  XLDS_REQUIRE(!path_.empty());

  std::string contents;
  stats_.existed = util::read_file_bytes(path_, contents);

  if (stats_.existed) {
    Parsed parsed = parse(contents, path_);
    for (ResultCache::ResultRecord& r : parsed.results)
      index_[Key{r.space_hash, r.point_hash, r.tier}] = std::move(r.fom);
    stats_.loaded = parsed.results.size();
    stats_.dropped_bytes = contents.size() - parsed.good_end;
    if (stats_.dropped_bytes > 0) std::filesystem::resize_file(path_, parsed.good_end);
  }

  out_.open(path_, std::ios::binary | std::ios::app);
  XLDS_REQUIRE_MSG(out_.is_open(), "cannot open result cache '" << path_ << "' for append");
  if (!stats_.existed) {
    std::string header;
    header.append(kMagic, sizeof kMagic);
    append_raw(header, kVersion);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
    XLDS_REQUIRE_MSG(out_.good(), "result cache header write to '" << path_ << "' failed");
  }
}

ResultCache::~ResultCache() {
  if (stats_.hits + stats_.misses == 0) return;
  std::string framed;
  util::append_record(framed, encode_session(session_space_, stats_.hits, stats_.misses));
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
}

const core::Fom* ResultCache::find(std::uint64_t space_hash, std::uint64_t point_hash,
                                   std::uint32_t tier) {
  if (session_space_ == 0) session_space_ = space_hash;
  const auto it = index_.find(Key{space_hash, point_hash, tier});
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

void ResultCache::insert(std::uint64_t space_hash, std::uint64_t point_hash,
                         std::uint32_t tier, const core::Fom& fom) {
  if (session_space_ == 0) session_space_ = space_hash;
  std::string framed;
  framed.reserve(80 + fom.note.size());
  util::append_record(framed, encode_result(space_hash, point_hash, tier, fom));
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
  XLDS_REQUIRE_MSG(out_.good(), "result cache append to '" << path_ << "' failed");
  ++stats_.appended;
  index_[Key{space_hash, point_hash, tier}] = fom;
}

ResultCache::InspectInfo ResultCache::inspect(const std::string& path) {
  std::string contents;
  XLDS_REQUIRE_MSG(util::read_file_bytes(path, contents),
                   "cannot read result cache '" << path << "'");
  Parsed parsed = parse(contents, path);
  InspectInfo info;
  info.version = parsed.version;
  info.results = std::move(parsed.results);
  info.sessions = std::move(parsed.sessions);
  info.dropped_bytes = contents.size() - parsed.good_end;
  return info;
}

}  // namespace xlds::dse
