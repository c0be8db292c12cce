/// The packed kernel data layout (DESIGN.md §12): record fusion
/// semantics and the incremental-stride invariants the DDA relies on.
/// Every Tracer marches records packed this way by their owner.
/// Built standalone so the TSan and ASan+UBSan CI jobs run it too.

#include <gtest/gtest.h>

#include <vector>

#include "core/packed_field.h"
#include "grid/grid.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;

TEST(PackedField, RecordsMatchSourceFieldsBitwise) {
  const CellRange w(IntVector(-2, 0, 1), IntVector(3, 4, 5));
  CCVariable<double> abskg(w, 0.0), sig(w, 0.0);
  CCVariable<CellType> ct(w, CellType::Flow);
  int i = 0;
  for (const IntVector& c : w) {
    abskg[c] = 0.1 * ++i;
    sig[c] = 3.25 / i;
    if (i % 7 == 0) ct[c] = CellType::Wall;
  }

  const PackedLevelField packed(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>::fromHost(ct)});
  ASSERT_TRUE(packed.valid());
  EXPECT_EQ(packed.window(), w);
  const PackedFieldView v = packed.view();
  for (const IntVector& c : w) {
    const PackedCell& rec = v[c];
    EXPECT_EQ(rec.abskg, abskg[c]);
    EXPECT_EQ(rec.sigmaT4OverPi, sig[c]);
    EXPECT_EQ(rec.cellType, static_cast<std::uint32_t>(ct[c]));
  }
}

TEST(PackedField, MissingCellTypeBakesFlowSentinel) {
  const CellRange w(IntVector(0), IntVector(3));
  CCVariable<double> abskg(w, 0.5), sig(w, 1.5);
  const PackedLevelField packed(
      RadiationFieldsView{FieldView<double>::fromHost(abskg),
                          FieldView<double>::fromHost(sig),
                          FieldView<CellType>{}});
  for (const IntVector& c : w)
    EXPECT_EQ(packed.view()[c].cellType, PackedCell::kFlow);
}

TEST(PackedField, StridesMatchOffsetDeltas) {
  // The incremental DDA's core invariant: bumping the linear offset by
  // stride(axis) is exactly a unit step along that axis.
  const CellRange w(IntVector(-1, 2, 0), IntVector(6, 7, 4));
  std::vector<PackedCell> storage(static_cast<std::size_t>(w.volume()));
  const PackedFieldView v(storage.data(), w);
  const IntVector unit[3] = {IntVector(1, 0, 0), IntVector(0, 1, 0),
                             IntVector(0, 0, 1)};
  for (const IntVector& c : w)
    for (int a = 0; a < 3; ++a) {
      const IntVector n = c + unit[a];
      if (!w.contains(n)) continue;
      EXPECT_EQ(v.offsetOf(n) - v.offsetOf(c), v.stride(a));
    }
  EXPECT_EQ(v.offsetOf(w.low()), 0);
}

}  // namespace
}  // namespace rmcrt::core
