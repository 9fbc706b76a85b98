#pragma once

// Versioned, checksummed binary snapshot container (DESIGN.md §1.9).
//
// A snapshot is a flat file: an 8-byte magic, a format version, and a
// sequence of independently CRC-protected sections.  Sections carry the
// mutable simulation state only — catalogs, profiles, holdings and
// anything else the scenario constructor derives deterministically from
// its config are *reconstructed*, never serialized, which keeps the
// format small and forward-portable across representation changes.
//
// Fail-closed contract: Reader validates the entire file — magic,
// version, section framing against the file size, and every section's
// CRC — in its constructor, before the engine applies a single byte of
// state.  Any defect throws snap::SnapshotError; a truncated download or
// a flipped bit can therefore never leave a half-restored simulation.
// Unknown versions are rejected outright (no forward parsing).  A file
// whose framing and CRCs are intact but whose contents are inconsistent
// (a count larger than its section, an out-of-range id) still throws
// SnapshotError, but only once the payload is applied, so the target
// simulation may be partly restored and must be discarded.
//
// Encoding: little-endian fixed-width integers; doubles as their IEEE-754
// bit pattern.  Writers emit sections in a fixed order and sort any
// unordered-container contents, so identical state always produces
// byte-identical files (the save-twice test pins this).

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace dsf::snap {

/// Typed failure of any snapshot operation: malformed or corrupt file,
/// configuration mismatch, unsnapshottable state.  dsf_sim maps it to
/// exit code 5.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// "DSFSNAP\0" little-endian.
inline constexpr std::uint64_t kMagic = 0x0050414E53465344ULL;
/// Bumped whenever a section's layout changes; the reader accepts only
/// this version.
inline constexpr std::uint32_t kVersion = 4;

enum class SectionId : std::uint32_t {
  kIdentity = 1,    ///< scenario name, population, seed, schedule values
  kEngineCore = 2,  ///< clock, RNG lanes, ledger, fault state
  kOverlay = 3,     ///< compact neighbor table (raw per-node lists)
  kEvents = 4,      ///< pending events as (time, kind, payload) records
  kDomain = 5,      ///< scenario-owned state (caches, stats, results)
};

/// CRC-32 (IEEE 802.3 polynomial, reflected).
std::uint32_t crc32(const std::uint8_t* data, std::size_t n) noexcept;

/// Builds a snapshot in memory section by section, then writes it out.
class Writer {
 public:
  /// One section's payload under construction.
  class Out {
   public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) {
      for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
      for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void f64(double v) {
      std::uint64_t b;
      std::memcpy(&b, &v, sizeof b);
      u64(b);
    }
    void str(const std::string& s) {
      u64(s.size());
      buf_.insert(buf_.end(), s.begin(), s.end());
    }

   private:
    friend class Writer;
    std::vector<std::uint8_t> buf_;
  };

  /// Starts a new section; returned reference stays valid until the next
  /// section() call.  Sections are written in call order.
  Out& section(SectionId id) {
    sections_.emplace_back(id, Out{});
    return sections_.back().second;
  }

  /// Serializes magic + version + all sections (id, length, CRC, payload)
  /// to `path`.  Throws SnapshotError on any I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::pair<SectionId, Out>> sections_;
};

/// Reads and fully validates a snapshot file; section payloads are then
/// consumed through bounds-checked cursors.
class Reader {
 public:
  /// Loads `path` and validates magic, version, framing and every
  /// section CRC.  Throws SnapshotError on any defect.
  explicit Reader(const std::string& path);

  /// Bounds-checked cursor over one section's payload.
  class In {
   public:
    std::uint8_t u8() {
      need(1);
      return data_[pos_++];
    }
    std::uint32_t u32() {
      need(4);
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
      return v;
    }
    std::uint64_t u64() {
      need(8);
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
      return v;
    }
    double f64() {
      const std::uint64_t b = u64();
      double v;
      std::memcpy(&v, &b, sizeof v);
      return v;
    }
    std::string str() {
      const std::uint64_t n = u64();
      need(n);
      std::string s(reinterpret_cast<const char*>(data_ + pos_),
                    static_cast<std::size_t>(n));
      pos_ += static_cast<std::size_t>(n);
      return s;
    }
    /// Reads a u64 element count and checks that that many elements of
    /// `elem_bytes` each fit in the rest of the section, so a corrupt
    /// count fails typed before it sizes an allocation.
    std::size_t count(std::size_t elem_bytes) {
      const std::uint64_t n = u64();
      if (n > remaining() / elem_bytes)
        throw SnapshotError("element count " + std::to_string(n) +
                            " exceeds the section payload");
      return static_cast<std::size_t>(n);
    }
    std::size_t remaining() const noexcept { return size_ - pos_; }

   private:
    friend class Reader;
    In(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}
    void need(std::uint64_t n) const {
      if (n > size_ - pos_)
        throw SnapshotError("section payload shorter than its contents");
    }
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
  };

  /// Cursor over section `id`'s payload; throws SnapshotError if absent.
  In section(SectionId id) const;

  std::uint32_t version() const noexcept { return version_; }

 private:
  struct Section {
    SectionId id;
    std::size_t offset;  ///< payload offset into file_
    std::size_t length;
  };
  std::vector<std::uint8_t> file_;
  std::vector<Section> sections_;
  std::uint32_t version_ = 0;
};

}  // namespace dsf::snap
