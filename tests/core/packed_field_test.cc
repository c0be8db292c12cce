/// The packed kernel data layout (DESIGN.md §12): record fusion
/// semantics, the incremental-stride invariants the DDA relies on, and
/// that pre-packed levels — how every pipeline trace task feeds its
/// Tracer — march bitwise like Tracer-owned packing on a two-level ROI
/// configuration that exercises wall-cell absorption, coarse-level
/// handoff, and domain-exit paths.
/// Built standalone so the TSan and ASan+UBSan CI jobs run it too.

#include <gtest/gtest.h>

#include <vector>

#include "core/packed_field.h"
#include "core/problems.h"
#include "core/ray_tracer.h"
#include "grid/grid.h"
#include "grid/operators.h"

namespace rmcrt::core {
namespace {

using grid::CCVariable;
using grid::CellType;
using grid::Grid;

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

/// Two-level ROI fixture with interior wall cells: rays starting on the
/// fine ROI hand off to the coarse level, absorb at the intruding wall
/// block or exit the domain — every branch of the march loop.
struct TwoLevelFixture {
  std::shared_ptr<Grid> grid;
  CCVariable<double> fAbs, fSig;
  CCVariable<CellType> fCt;
  CCVariable<double> cAbs, cSig;
  CCVariable<CellType> cCt;
  CellRange roi, patch;

  TwoLevelFixture()
      : grid(Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(16),
                                IntVector(4), IntVector(4), IntVector(4))),
        fAbs(grid->fineLevel().cells(), 0.0),
        fSig(grid->fineLevel().cells(), 0.0),
        fCt(grid->fineLevel().cells(), CellType::Flow),
        cAbs(grid->coarseLevel().cells(), 0.0),
        cSig(grid->coarseLevel().cells(), 0.0),
        cCt(grid->coarseLevel().cells(), CellType::Flow) {
    initializeProperties(grid->fineLevel(), burnsChriston(), fAbs, fSig,
                         fCt);
    // An intruding wall block on the fine level (rr-aligned so it
    // coarsens exactly), with a wall emissive source so wall absorption
    // contributes a distinctive term.
    for (const IntVector& c :
         CellRange(IntVector(8, 8, 8), IntVector(12, 12, 12)))
      fCt[c] = CellType::Wall;
    const IntVector rr = grid->fineLevel().refinementRatio();
    grid::coarsenAverage(fAbs, rr, cAbs, grid->coarseLevel().cells());
    grid::coarsenAverage(fSig, rr, cSig, grid->coarseLevel().cells());
    grid::coarsenCellType(fCt, rr, cCt, grid->coarseLevel().cells());
    // ROI = first fine patch + halo; marching beyond it continues on the
    // coarse level until the wall block or the domain boundary.
    patch = grid->fineLevel().patch(0).cells();
    roi = grid->fineLevel()
              .patch(0)
              .ghostWindow(3)
              .intersect(grid->fineLevel().cells());
  }

  Tracer tracer(int rays = 12) const {
    TraceLevel fineTL{LevelGeom::from(grid->fineLevel()),
                      RadiationFieldsView{FieldView<double>::fromHost(fAbs),
                                          FieldView<double>::fromHost(fSig),
                                          FieldView<CellType>::fromHost(fCt)},
                      roi};
    TraceLevel coarseTL{
        LevelGeom::from(grid->coarseLevel()),
        RadiationFieldsView{FieldView<double>::fromHost(cAbs),
                            FieldView<double>::fromHost(cSig),
                            FieldView<CellType>::fromHost(cCt)},
        grid->coarseLevel().cells()};
    TraceConfig cfg;
    cfg.nDivQRays = rays;
    cfg.seed = 33;
    return Tracer({fineTL, coarseTL}, WallProperties{0.25, 0.9}, cfg);
  }
};

TEST(PackedVsLegacy, SharedPackedViewMatchesTracerOwnedPacking) {
  // Every pipeline trace task hands its Tracer packed records only: the
  // patch's ROI records and the coarse set its registration shares
  // across tasks. That must be indistinguishable from letting the Tracer
  // pack the fields itself.
  const TwoLevelFixture fx;
  Tracer owned = fx.tracer();

  const PackedLevelField finePacked(
      RadiationFieldsView{FieldView<double>::fromHost(fx.fAbs),
                          FieldView<double>::fromHost(fx.fSig),
                          FieldView<CellType>::fromHost(fx.fCt)});
  const PackedLevelField coarsePacked(
      RadiationFieldsView{FieldView<double>::fromHost(fx.cAbs),
                          FieldView<double>::fromHost(fx.cSig),
                          FieldView<CellType>::fromHost(fx.cCt)});
  TraceLevel fineTL{LevelGeom::from(fx.grid->fineLevel()),
                    RadiationFieldsView{}, fx.roi, finePacked.view()};
  TraceLevel coarseTL{LevelGeom::from(fx.grid->coarseLevel()),
                      RadiationFieldsView{}, fx.grid->coarseLevel().cells(),
                      coarsePacked.view()};
  TraceConfig cfg;
  cfg.nDivQRays = 12;
  cfg.seed = 33;
  Tracer shared({fineTL, coarseTL}, WallProperties{0.25, 0.9}, cfg);

  CCVariable<double> divQOwned(fx.patch, 0.0), divQShared(fx.patch, 0.0);
  owned.computeDivQ(fx.patch, MutableFieldView<double>::fromHost(divQOwned));
  shared.computeDivQ(fx.patch, MutableFieldView<double>::fromHost(divQShared));
  for (const IntVector& c : fx.patch)
    ASSERT_EQ(divQOwned[c], divQShared[c]) << "cell " << c;
}

}  // namespace
}  // namespace rmcrt::core
