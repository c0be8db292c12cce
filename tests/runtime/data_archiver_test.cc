#include "runtime/data_archiver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "grid/grid.h"

namespace rmcrt::runtime {
namespace {

class DataArchiverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs the discovered tests in parallel,
    // and two tests sharing one checkpoint dir race on grid.txt.
    m_dir = std::string("/tmp/rmcrt_checkpoint_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::error_code ec;  // best-effort cleanup
    std::filesystem::remove_all(m_dir, ec);
  }
  std::string m_dir;
};

TEST_F(DataArchiverTest, GridRoundTripThroughRegridCycle) {
  // A checkpoint taken after a regrid must restore the REGRIDDED patch
  // set — irregular fine boxes and all — not the input-file tiling.
  auto before = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0),
                                         IntVector(8), IntVector(4),
                                         IntVector(4), IntVector(2));
  ASSERT_TRUE(DataArchiver::checkpointGrid(m_dir, *before));
  auto back = DataArchiver::restoreGrid(m_dir);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->numLevels(), before->numLevels());
  EXPECT_EQ(back->numPatches(), before->numPatches());

  // "Regrid": same domain, different (irregular) fine-level coverage.
  auto after = grid::Grid::makeAdaptive(
      Vector(0.0), Vector(1.0), IntVector(8), IntVector(4), IntVector(2),
      {CellRange(IntVector(0, 0, 0), IntVector(4, 4, 4)),
       CellRange(IntVector(4, 4, 4), IntVector(8, 8, 8))});
  ASSERT_TRUE(DataArchiver::checkpointGrid(m_dir, *after));
  back = DataArchiver::restoreGrid(m_dir);
  ASSERT_TRUE(back);
  ASSERT_EQ(back->numLevels(), after->numLevels());
  ASSERT_EQ(back->numPatches(), after->numPatches());
  for (int pid = 0; pid < after->numPatches(); ++pid) {
    const grid::Patch* want = after->patchById(pid);
    const grid::Patch* got = back->patchById(pid);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->cells(), want->cells()) << "patch " << pid;
  }
  EXPECT_FALSE(back->fineLevel().uniformlyTiled());
}

TEST_F(DataArchiverTest, CorruptGridRecordRejected) {
  auto g = grid::Grid::makeTwoLevel(Vector(0.0), Vector(1.0), IntVector(8),
                                    IntVector(4), IntVector(4),
                                    IntVector(2));
  ASSERT_TRUE(DataArchiver::checkpointGrid(m_dir, *g));

  // Truncated mid-record: parsing must fail, not fabricate levels.
  std::string contents;
  {
    std::ifstream is(m_dir + "/grid.txt");
    std::ostringstream buf;
    buf << is.rdbuf();
    contents = buf.str();
  }
  {
    std::ofstream os(m_dir + "/grid.txt", std::ios::trunc);
    os << contents.substr(0, contents.size() / 2);
  }
  EXPECT_FALSE(DataArchiver::restoreGrid(m_dir));

  // Garbage header likewise.
  {
    std::ofstream os(m_dir + "/grid.txt", std::ios::trunc);
    os << "not a grid record at all\n";
  }
  EXPECT_FALSE(DataArchiver::restoreGrid(m_dir));

  // Missing file likewise.
  std::remove((m_dir + "/grid.txt").c_str());
  EXPECT_FALSE(DataArchiver::restoreGrid(m_dir));
}

}  // namespace
}  // namespace rmcrt::runtime
