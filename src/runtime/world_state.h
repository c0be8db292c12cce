#pragma once

/// \file world_state.h
/// The one binary framing every snapshot and replay-journal file is
/// written and read with. A snapshot directory holds
///
///   rank<r>.bin  — one blob per rank (see snapshot.cc)
///   MANIFEST     — written LAST and sealed: format version, step, domain
///                  seed, the grid record, and one checksum per rank blob
///
/// and a journal directory holds one sealed JOURNAL. Values are
/// host-endian (snapshots never leave the node); every count is a u64.
///
/// Sealed files end in the FNV-1a checksum of everything before it, so a
/// torn or corrupted manifest or journal never decodes. The manifest-last
/// discipline makes torn snapshots self-identifying: a crash mid-save
/// leaves a directory with no (or a torn) MANIFEST. Decoding is
/// bounds-checked: ByteReader refuses any count the remaining bytes cannot
/// hold, so a hostile file fails the load instead of sizing an allocation.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/range.h"

namespace rmcrt::runtime {

/// Bump when any file layout changes; loaders reject other versions
/// outright rather than guessing.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

/// FNV-1a over a byte range, chainable via \p h.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- encoding -------------------------------------------------------------

template <typename T>
void put(std::string& b, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  b.append(reinterpret_cast<const char*>(&v), sizeof v);
}
inline void putString(std::string& b, const std::string& s) {
  put<std::uint64_t>(b, s.size());
  b.append(s);
}
inline void putRange(std::string& b, const CellRange& r) {
  for (int d = 0; d < 3; ++d) put<std::int32_t>(b, r.low()[d]);
  for (int d = 0; d < 3; ++d) put<std::int32_t>(b, r.high()[d]);
}

// --- decoding -------------------------------------------------------------

/// Bounds-checked sequential decoder. Any short read or refused count
/// latches !ok() and every later read yields zeros, so a decoder can read
/// a whole record and test ok() once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : m_bytes(bytes) {}

  bool ok() const { return m_ok; }
  /// Every byte consumed without error: trailing bytes are a decode error.
  bool done() const { return m_ok && m_pos == m_bytes.size(); }
  /// Latch a failure found by the caller (a value out of range).
  void fail() { m_ok = false; }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (const char* p = bytes(sizeof v)) std::memcpy(&v, p, sizeof v);
    return v;
  }

  /// A u64 element count, refused (0 and !ok()) unless the remaining
  /// bytes can hold that many elements of at least \p elemBytes each.
  std::size_t count(std::size_t elemBytes) {
    const std::uint64_t n = get<std::uint64_t>();
    if (!m_ok || (elemBytes > 0 && n > remaining() / elemBytes)) {
      m_ok = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// The next \p n bytes, or nullptr when fewer remain.
  const char* bytes(std::size_t n) {
    if (!m_ok || n > remaining()) {
      m_ok = false;
      return nullptr;
    }
    const char* p = m_bytes.data() + m_pos;
    m_pos += n;
    return p;
  }

  std::string string() {
    const std::size_t n = count(1);
    const char* p = bytes(n);
    return p ? std::string(p, n) : std::string();
  }

  CellRange range() {
    int v[6] = {};
    for (int& c : v) c = get<std::int32_t>();
    return CellRange(IntVector(v[0], v[1], v[2]), IntVector(v[3], v[4], v[5]));
  }

 private:
  std::size_t remaining() const { return m_bytes.size() - m_pos; }

  std::string_view m_bytes;
  std::size_t m_pos = 0;
  bool m_ok = true;
};

// --- files ----------------------------------------------------------------

/// Read a whole file into \p out; false when unreadable.
inline bool readFileBytes(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  out = buf.str();
  return true;
}

inline bool writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return os.good();
}

/// Write \p body followed by its FNV-1a checksum.
inline bool writeSealed(const std::string& path, std::string body) {
  put(body, fnv1a(body.data(), body.size()));
  return writeFileBytes(path, body);
}

/// Read a file written by writeSealed into \p body (checksum stripped);
/// false when missing, shorter than a checksum, or not matching it.
inline bool readSealed(const std::string& path, std::string& body) {
  std::uint64_t sum = 0;
  if (!readFileBytes(path, body) || body.size() < sizeof sum) return false;
  const std::size_t n = body.size() - sizeof sum;
  std::memcpy(&sum, body.data() + n, sizeof sum);
  body.resize(n);
  return sum == fnv1a(body.data(), n);
}

}  // namespace rmcrt::runtime
