#pragma once

/// \file packed_field.h
/// The kernel data layout of the ray-march hot path (DESIGN.md §12): the
/// three radiative-property fields the marcher reads per cell crossing
/// (abskg, sigmaT4/pi, cellType) fused into one contiguous array of
/// PackedCell records. One cache-line-local load per segment replaces
/// three scattered loads that each redo the full 3D->linear index
/// multiply, and wall-ness is baked into the record so the march loop
/// carries no `cellType.valid()` branch.
///
/// Layers:
///   PackedCell       — one cell's fused record (trivially copyable, so
///                      the same bytes serve host memory and the
///                      simulated-GPU device storage)
///   PackedFieldView  — non-owning view + the per-axis linear strides the
///                      incremental DDA bumps by
///   PackedLevelField — owning host-side storage, packed from a
///                      RadiationFieldsView: a trace task's ROI, or the
///                      whole-level set one pipeline registration shares
///                      across its trace tasks
///
/// Packing copies double bit patterns verbatim, so a record carries
/// exactly the values of its source fields (packed_field_test).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/field_view.h"

namespace rmcrt::core {

/// One cell's radiative properties, fused. 24 bytes: a 64-byte cache
/// line holds the record plus most of its x-neighbor — the common next
/// access of the marcher.
struct PackedCell {
  double abskg = 0.0;
  double sigmaT4OverPi = 0.0;
  /// grid::CellType baked at pack time; kFlow sentinel when the source
  /// level carries no cellType field, so the kernel never branches on
  /// field validity.
  std::uint32_t cellType = 0;
  std::uint32_t pad = 0;  ///< explicit padding: deterministic record bytes

  static constexpr std::uint32_t kFlow =
      static_cast<std::uint32_t>(grid::CellType::Flow);
  static constexpr std::uint32_t kWall =
      static_cast<std::uint32_t>(grid::CellType::Wall);
};
static_assert(sizeof(PackedCell) == 24, "packed record layout changed");
static_assert(std::is_trivially_copyable_v<PackedCell>,
              "records must be memcpy-able across the PCIe bus");

/// Non-owning, trivially-copyable view over a packed level window — the
/// marcher's sole input. Exposes the per-axis linear strides so the DDA
/// can resolve a 3-D index once and then bump a linear offset by
/// stride(axis) * step(axis) on each cell crossing.
class PackedFieldView {
 public:
  PackedFieldView() = default;
  PackedFieldView(const PackedCell* data, const CellRange& window)
      : m_data(data), m_window(window) {
    const IntVector sz = window.size();
    m_stride[0] = 1;
    m_stride[1] = sz.x();
    m_stride[2] = static_cast<std::int64_t>(sz.x()) * sz.y();
  }

  static PackedFieldView fromDevice(const gpu::DeviceVar& dv) {
    assert(dv.elemSize == sizeof(PackedCell));
    return PackedFieldView(static_cast<const PackedCell*>(dv.devPtr),
                           dv.window);
  }

  bool valid() const { return m_data != nullptr; }
  const CellRange& window() const { return m_window; }

  /// Linear element offset of cell \p c (z-major, x fastest — the same
  /// linearization as FieldView/Array3).
  std::int64_t offsetOf(const IntVector& c) const {
    assert(m_window.contains(c));
    const IntVector rel = c - m_window.low();
    return rel.x() + m_stride[1] * rel.y() + m_stride[2] * rel.z();
  }

  /// Elements to advance per unit step along \p axis (0=x, 1=y, 2=z).
  std::int64_t stride(int axis) const { return m_stride[axis]; }

  /// Gather-friendly accessors for the SIMD packet march (DESIGN.md §14):
  /// the lane state keeps one linear element offset per ray and gathers
  /// each property with a byte-offset vector computed as
  /// `offset * kRecordBytes + k<Field>ByteOffset` against bytes(). The
  /// byte offsets are compile-time constants of the (static_assert'ed)
  /// record layout, so a layout change breaks the build, not the gather.
  static constexpr std::int64_t kRecordBytes =
      static_cast<std::int64_t>(sizeof(PackedCell));
  static constexpr std::int64_t kAbskgByteOffset =
      static_cast<std::int64_t>(offsetof(PackedCell, abskg));
  static constexpr std::int64_t kSigmaByteOffset =
      static_cast<std::int64_t>(offsetof(PackedCell, sigmaT4OverPi));
  static constexpr std::int64_t kCellTypeByteOffset =
      static_cast<std::int64_t>(offsetof(PackedCell, cellType));

  /// The record array as raw bytes — the gather base pointer.
  const unsigned char* bytes() const {
    return reinterpret_cast<const unsigned char*>(m_data);
  }

  /// Elements to advance per unit step along \p axis for a ray stepping
  /// in direction sign \p step (+1/-1) — the pre-signed lane stride the
  /// packet march adds to a lane's linear offset on each crossing.
  std::int64_t laneStride(int axis, int step) const {
    return m_stride[axis] * step;
  }

  const PackedCell* data() const { return m_data; }
  const PackedCell& operator[](const IntVector& c) const {
    return m_data[offsetOf(c)];
  }

 private:
  const PackedCell* m_data = nullptr;
  CellRange m_window;
  std::int64_t m_stride[3] = {0, 0, 0};
};

/// Owning host-side packed copy of one level's radiation properties.
class PackedLevelField {
 public:
  PackedLevelField() = default;
  explicit PackedLevelField(const RadiationFieldsView& fields) {
    pack(fields);
  }

  /// (Re)build the whole record array over fields.abskg's window. All
  /// supplied views must share that window.
  void pack(const RadiationFieldsView& fields);

  bool valid() const { return !m_cells.empty(); }
  const CellRange& window() const { return m_window; }
  const PackedCell* data() const { return m_cells.data(); }
  std::size_t sizeBytes() const { return m_cells.size() * sizeof(PackedCell); }
  PackedFieldView view() const {
    return PackedFieldView(m_cells.data(), m_window);
  }

 private:
  std::vector<PackedCell> m_cells;
  CellRange m_window;
};

}  // namespace rmcrt::core
