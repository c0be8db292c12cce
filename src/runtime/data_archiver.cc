#include "runtime/data_archiver.h"

#include <sys/stat.h>

#include <fstream>
#include <iomanip>
#include <sstream>

namespace rmcrt::runtime {

namespace {

std::ostream& putRange(std::ostream& os, const CellRange& r) {
  return os << r.low().x() << " " << r.low().y() << " " << r.low().z() << " "
            << r.high().x() << " " << r.high().y() << " " << r.high().z();
}

bool getRange(std::istream& is, CellRange& r) {
  int lx, ly, lz, hx, hy, hz;
  if (!(is >> lx >> ly >> lz >> hx >> hy >> hz)) return false;
  r = CellRange(IntVector(lx, ly, lz), IntVector(hx, hy, hz));
  return true;
}

}  // namespace

bool DataArchiver::checkpointGrid(const std::string& directory,
                                  const grid::Grid& grid) {
  ::mkdir(directory.c_str(), 0755);  // EEXIST is fine
  std::ofstream os(directory + "/grid.txt");
  if (!os) return false;
  os << std::setprecision(17);
  const Vector lo = grid.physLow();
  const Vector hi = grid.physHigh();
  os << "bounds " << lo.x() << " " << lo.y() << " " << lo.z() << " "
     << hi.x() << " " << hi.y() << " " << hi.z() << "\n";
  os << "levels " << grid.numLevels() << "\n";
  for (int l = 0; l < grid.numLevels(); ++l) {
    const grid::Level& level = grid.level(l);
    const IntVector rr = level.refinementRatio();
    os << "level " << l << " "
       << (level.uniformlyTiled() ? "uniform" : "irregular") << " " << rr.x()
       << " " << rr.y() << " " << rr.z() << " ";
    putRange(os, level.cells());
    if (level.uniformlyTiled()) {
      const IntVector ps = level.patchSize();
      os << " " << ps.x() << " " << ps.y() << " " << ps.z() << "\n";
    } else {
      os << " " << level.numPatches() << "\n";
      for (const grid::Patch& p : level.patches()) {
        os << "box ";
        putRange(os, p.cells());
        os << "\n";
      }
    }
  }
  return static_cast<bool>(os);
}

std::shared_ptr<const grid::Grid> DataArchiver::restoreGrid(
    const std::string& directory) {
  std::ifstream is(directory + "/grid.txt");
  if (!is) return nullptr;
  std::string tok;
  Vector lo, hi;
  int numLevels = 0;
  {
    double lx, ly, lz, hx, hy, hz;
    if (!(is >> tok >> lx >> ly >> lz >> hx >> hy >> hz) || tok != "bounds")
      return nullptr;
    lo = Vector(lx, ly, lz);
    hi = Vector(hx, hy, hz);
  }
  if (!(is >> tok >> numLevels) || tok != "levels" || numLevels <= 0)
    return nullptr;

  std::vector<grid::Grid::LevelSpec> specs;
  for (int l = 0; l < numLevels; ++l) {
    int idx, rx, ry, rz;
    std::string kind;
    grid::Grid::LevelSpec spec;
    if (!(is >> tok >> idx >> kind >> rx >> ry >> rz) || tok != "level" ||
        idx != l) {
      return nullptr;
    }
    spec.refinementRatio = IntVector(rx, ry, rz);
    if (!getRange(is, spec.extent)) return nullptr;
    if (kind == "uniform") {
      int px, py, pz;
      if (!(is >> px >> py >> pz)) return nullptr;
      spec.patchSize = IntVector(px, py, pz);
    } else if (kind == "irregular") {
      spec.irregular = true;
      int numBoxes = 0;
      if (!(is >> numBoxes) || numBoxes < 0) return nullptr;
      spec.patchBoxes.reserve(static_cast<std::size_t>(numBoxes));
      for (int b = 0; b < numBoxes; ++b) {
        CellRange box;
        if (!(is >> tok) || tok != "box" || !getRange(is, box))
          return nullptr;
        spec.patchBoxes.push_back(box);
      }
    } else {
      return nullptr;
    }
    specs.push_back(std::move(spec));
  }
  try {
    return grid::Grid::makeFromSpec(lo, hi, specs);
  } catch (const std::exception&) {
    return nullptr;
  }
}

}  // namespace rmcrt::runtime
