#include "core/packed_field.h"

#include <algorithm>

namespace rmcrt::core {

void PackedLevelField::pack(const RadiationFieldsView& fields) {
  assert(fields.abskg.valid() && fields.sigmaT4OverPi.valid() &&
         "packing needs the two property fields");
  assert(fields.sigmaT4OverPi.window() == fields.abskg.window() &&
         "property windows must coincide");
  assert((!fields.cellType.valid() ||
          fields.cellType.window() == fields.abskg.window()) &&
         "cellType window must coincide when present");
  m_window = fields.abskg.window();
  m_cells.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                     m_window.volume(), 0)),
                 PackedCell{});
  const PackedFieldView v = view();
  const bool hasCellType = fields.cellType.valid();
  for (const IntVector& c : m_window) {
    PackedCell& rec = m_cells[static_cast<std::size_t>(v.offsetOf(c))];
    rec.abskg = fields.abskg[c];
    rec.sigmaT4OverPi = fields.sigmaT4OverPi[c];
    rec.cellType = hasCellType
                       ? static_cast<std::uint32_t>(fields.cellType[c])
                       : PackedCell::kFlow;
  }
}

}  // namespace rmcrt::core
