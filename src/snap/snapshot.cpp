#include "snap/snapshot.h"

#include <array>
#include <cstdio>

namespace dsf::snap {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

// Fixed-size framing around each section payload.
constexpr std::size_t kHeaderBytes = 8 + 4;          // magic + version
constexpr std::size_t kSectionFrameBytes = 4 + 8 + 4;  // id + length + crc

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void Writer::write_file(const std::string& path) const {
  std::vector<std::uint8_t> out;
  std::size_t total = kHeaderBytes;
  for (const auto& [id, sec] : sections_)
    total += kSectionFrameBytes + sec.buf_.size();
  out.reserve(total);

  put_u64(out, kMagic);
  put_u32(out, kVersion);
  for (const auto& [id, sec] : sections_) {
    put_u32(out, static_cast<std::uint32_t>(id));
    put_u64(out, sec.buf_.size());
    put_u32(out, crc32(sec.buf_.data(), sec.buf_.size()));
    out.insert(out.end(), sec.buf_.begin(), sec.buf_.end());
  }

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw SnapshotError("cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed)
    throw SnapshotError("short write to '" + path + "'");
}

Reader::Reader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw SnapshotError("cannot open '" + path + "'");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    throw SnapshotError("cannot stat '" + path + "'");
  }
  file_.resize(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(file_.data(), 1, file_.size(), f);
  std::fclose(f);
  if (got != file_.size()) throw SnapshotError("short read from '" + path + "'");

  // Validate everything up front — header, framing, every CRC — so callers
  // can apply state without risk of hitting corruption halfway through.
  if (file_.size() < kHeaderBytes)
    throw SnapshotError("file too small to hold a snapshot header");
  if (read_u64(file_.data()) != kMagic)
    throw SnapshotError("bad magic: not a snapshot file");
  version_ = read_u32(file_.data() + 8);
  if (version_ != kVersion)
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version_) + " (expected " +
                        std::to_string(kVersion) + ")");

  std::size_t pos = kHeaderBytes;
  while (pos < file_.size()) {
    if (file_.size() - pos < kSectionFrameBytes)
      throw SnapshotError("truncated section header");
    const std::uint32_t id = read_u32(file_.data() + pos);
    const std::uint64_t len = read_u64(file_.data() + pos + 4);
    const std::uint32_t crc = read_u32(file_.data() + pos + 12);
    pos += kSectionFrameBytes;
    if (len > file_.size() - pos)
      throw SnapshotError("section payload extends past end of file");
    const std::size_t n = static_cast<std::size_t>(len);
    if (crc32(file_.data() + pos, n) != crc)
      throw SnapshotError("CRC mismatch in section " + std::to_string(id));
    for (const Section& s : sections_)
      if (s.id == static_cast<SectionId>(id))
        throw SnapshotError("duplicate section " + std::to_string(id));
    sections_.push_back({static_cast<SectionId>(id), pos, n});
    pos += n;
  }
}

Reader::In Reader::section(SectionId id) const {
  for (const Section& s : sections_)
    if (s.id == id) return In(file_.data() + s.offset, s.length);
  throw SnapshotError("missing section " +
                      std::to_string(static_cast<std::uint32_t>(id)));
}

}  // namespace dsf::snap
