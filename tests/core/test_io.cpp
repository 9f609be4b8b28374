// Injectable I/O seam: fault-spec parsing, each fault kind's observable
// behaviour through CheckedFile, path filtering, and counter bookkeeping.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/io.h"

namespace bismark::core {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the real Io installed, whatever happens inside.
class IoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearIoFaults();
    // Per-process dir: ctest runs suite cases as concurrent processes.
    dir_ = fs::temp_directory_path() / ("bismark_io_test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ClearIoFaults();
    fs::remove_all(dir_);
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static std::uintmax_t SizeOf(const std::string& p) {
    std::error_code ec;
    const auto n = fs::file_size(p, ec);
    return ec ? 0 : n;
  }

  fs::path dir_;
};

TEST(IoFaultSpec, ParsesEveryKindAndTrigger) {
  IoFaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseIoFaultSpec("enospc@writes=3", &plan, &error)) << error;
  EXPECT_EQ(plan.kind, IoFaultPlan::Kind::kEnospc);
  EXPECT_EQ(plan.at_op, 3u);
  EXPECT_EQ(plan.at_bytes, 0u);
  EXPECT_TRUE(plan.path_substr.empty());

  ASSERT_TRUE(ParseIoFaultSpec("shortwrite@bytes=4096:path=.bsmkseg", &plan, &error));
  EXPECT_EQ(plan.kind, IoFaultPlan::Kind::kShortWrite);
  EXPECT_EQ(plan.at_bytes, 4096u);
  EXPECT_EQ(plan.path_substr, ".bsmkseg");

  ASSERT_TRUE(ParseIoFaultSpec("fsyncfail@writes=1", &plan, &error));
  EXPECT_EQ(plan.kind, IoFaultPlan::Kind::kFsyncFail);

  ASSERT_TRUE(ParseIoFaultSpec("linkfail@writes=1:path=.bsmkcol", &plan, &error));
  EXPECT_EQ(plan.kind, IoFaultPlan::Kind::kLinkFail);

  ASSERT_TRUE(ParseIoFaultSpec("kill@writes=40:path=manifest", &plan, &error));
  EXPECT_EQ(plan.kind, IoFaultPlan::Kind::kKill);
  EXPECT_EQ(plan.path_substr, "manifest");
}

TEST(IoFaultSpec, RejectsMalformedSpecs) {
  IoFaultPlan plan;
  for (const char* bad : {"", "enospc", "nosuchkind@writes=1", "enospc@writes",
                          "enospc@writes=0", "enospc@writes=abc", "enospc@calls=3",
                          "enospc@writes=1:paths=x"}) {
    std::string error;
    EXPECT_FALSE(ParseIoFaultSpec(bad, &plan, &error)) << bad;
    EXPECT_NE(error.find("bad I/O fault spec"), std::string::npos) << bad;
  }
}

TEST_F(IoFaultTest, EnospcIsStickyAndLatchesCheckedFile) {
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kEnospc;
    p.at_op = 1;
    return p;
  }());

  CheckedFile f;
  ASSERT_TRUE(f.open(path("full.bin")));
  EXPECT_TRUE(f.write(std::string(16, 'x')));  // buffered, not yet on disk
  EXPECT_FALSE(f.flush());
  EXPECT_FALSE(f.ok());
  EXPECT_NE(f.error().find("No space left"), std::string::npos) << f.error();
  // Latched: every later call fails without clearing the first diagnostic.
  EXPECT_FALSE(f.write("more"));
  EXPECT_FALSE(f.sync());
  EXPECT_FALSE(f.close());
  EXPECT_NE(f.error().find("No space left"), std::string::npos);
  EXPECT_GE(CurrentIoFaultStats().faults_fired, 1u);
}

TEST_F(IoFaultTest, ShortWriteReportsSuccessButTearsTheFile) {
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kShortWrite;
    p.at_op = 1;
    return p;
  }());

  CheckedFile f;
  ASSERT_TRUE(f.open(path("torn.bin")));
  ASSERT_TRUE(f.write(std::string(100, 'y')));
  EXPECT_TRUE(f.flush());  // the lie: success reported, half the bytes land
  EXPECT_TRUE(f.close());
  EXPECT_TRUE(f.ok());
  EXPECT_EQ(f.bytes_accepted(), 100u);
  EXPECT_EQ(SizeOf(path("torn.bin")), 50u)
      << "shortwrite must tear the file while reporting success — only "
         "checksums can catch this";
}

TEST_F(IoFaultTest, FsyncFailSurfacesThroughSync) {
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kFsyncFail;
    p.at_op = 2;  // the write is op 1, the fsync op 2
    return p;
  }());

  CheckedFile f;
  ASSERT_TRUE(f.open(path("nosync.bin")));
  ASSERT_TRUE(f.write("durable?"));
  EXPECT_FALSE(f.sync());
  EXPECT_NE(f.error().find("fsync"), std::string::npos) << f.error();
}

TEST_F(IoFaultTest, FsyncFailSurfacesThroughDirectorySync) {
  std::string error;
  ASSERT_TRUE(Io::Active().sync_dir(dir_.string(), &error)) << error;
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kFsyncFail;
    p.at_op = 1;
    return p;
  }());
  EXPECT_FALSE(Io::Active().sync_dir(dir_.string(), &error));
  EXPECT_NE(error.find(dir_.string() + ": fsync (injected) failed"), std::string::npos)
      << error;
  EXPECT_EQ(CurrentIoFaultStats().faults_fired, 1u);
}

TEST_F(IoFaultTest, LinkFailIsStickyAndMatchesTheNewName) {
  CheckedFile f;
  ASSERT_TRUE(f.open(path("src.bin")));
  ASSERT_TRUE(f.write("linked") && f.close());
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kLinkFail;
    p.at_op = 1;
    p.path_substr = ".lnk";
    return p;
  }());
  std::string error;
  ASSERT_TRUE(Io::Active().link(path("src.bin"), path("plain"), &error)) << error;
  EXPECT_FALSE(Io::Active().link(path("src.bin"), path("a.lnk"), &error));
  EXPECT_NE(error.find("link (injected)"), std::string::npos) << error;
  EXPECT_FALSE(Io::Active().link(path("src.bin"), path("b.lnk"), &error));
  EXPECT_FALSE(fs::exists(path("a.lnk")) || fs::exists(path("b.lnk")));
  EXPECT_EQ(SizeOf(path("plain")), 6u);
}

TEST_F(IoFaultTest, PathFilterScopesTheFault) {
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kEnospc;
    p.at_op = 1;
    p.path_substr = ".bsmkseg";
    return p;
  }());

  CheckedFile other;
  ASSERT_TRUE(other.open(path("unrelated.txt")));
  EXPECT_TRUE(other.write("fine"));
  EXPECT_TRUE(other.sync());
  EXPECT_TRUE(other.close());

  CheckedFile seg;
  ASSERT_TRUE(seg.open(path("run.bsmkseg")));
  EXPECT_TRUE(seg.write("doomed"));
  EXPECT_FALSE(seg.flush());
  EXPECT_FALSE(seg.ok());
}

TEST_F(IoFaultTest, ClearRestoresRealIoAndCounters) {
  InstallIoFaultPlan([] {
    IoFaultPlan p;
    p.kind = IoFaultPlan::Kind::kEnospc;
    p.at_op = 1;
    return p;
  }());
  CheckedFile f;
  ASSERT_TRUE(f.open(path("x.bin")));
  f.write("z");
  f.flush();
  EXPECT_GE(CurrentIoFaultStats().ops, 1u);

  ClearIoFaults();
  EXPECT_EQ(CurrentIoFaultStats().ops, 0u);
  EXPECT_EQ(CurrentIoFaultStats().faults_fired, 0u);
  CheckedFile ok;
  ASSERT_TRUE(ok.open(path("y.bin")));
  EXPECT_TRUE(ok.write("hello"));
  EXPECT_TRUE(ok.sync());
  EXPECT_TRUE(ok.close());
  EXPECT_EQ(SizeOf(path("y.bin")), 5u);
}

// --- MappedFile: the columnar reader's byte source ---------------------------

class MappedFileTest : public IoFaultTest {
 protected:
  void SetUp() override {
    IoFaultTest::SetUp();
    ForceBufferedReadsForTest(false);
    ResetIoReadStats();
  }
  void TearDown() override {
    ForceBufferedReadsForTest(false);
    IoFaultTest::TearDown();
  }

  std::string WriteFile(const char* name, const std::string& contents) {
    const std::string p = path(name);
    std::ofstream out(p, std::ios::binary);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    return p;
  }
};

TEST_F(MappedFileTest, MmapAndBufferedPathsExposeIdenticalBytes) {
  const std::string contents = "column bytes\0with a NUL" + std::string(4096, 'z');
  const std::string p = WriteFile("col.bin", contents);

  MappedFile mapped;
  std::string error;
  ASSERT_TRUE(mapped.open(p, &error)) << error;
  EXPECT_TRUE(mapped.is_open());
  ASSERT_EQ(mapped.size(), contents.size());
  EXPECT_EQ(std::string(mapped.data(), mapped.size()), contents);
  EXPECT_EQ(mapped.path(), p);

  ForceBufferedReadsForTest(true);
  MappedFile buffered;
  ASSERT_TRUE(buffered.open(p, &error)) << error;
  EXPECT_FALSE(buffered.mmapped());
  ASSERT_EQ(buffered.size(), contents.size());
  EXPECT_EQ(std::string(buffered.data(), buffered.size()), contents);
}

TEST_F(MappedFileTest, EmptyFileOpensWithZeroSize) {
  const std::string p = WriteFile("empty.bin", "");
  MappedFile f;
  std::string error;
  ASSERT_TRUE(f.open(p, &error)) << error;  // mmap(0) is invalid; fallback
  EXPECT_TRUE(f.is_open());
  EXPECT_EQ(f.size(), 0u);
}

TEST_F(MappedFileTest, MissingFileFailsWithPathInError) {
  MappedFile f;
  std::string error;
  EXPECT_FALSE(f.open(path("nonexistent.bin"), &error));
  EXPECT_FALSE(f.is_open());
  EXPECT_NE(error.find("nonexistent.bin"), std::string::npos) << error;
}

TEST_F(MappedFileTest, ReadStatsRecordEveryOpenInOrder) {
  const std::string a = WriteFile("a.bin", "aaaa");
  const std::string b = WriteFile("b.bin", "bbbbbbbb");
  ResetIoReadStats();

  MappedFile fa, fb, fa2;
  std::string error;
  ASSERT_TRUE(fa.open(a, &error));
  ASSERT_TRUE(fb.open(b, &error));
  ASSERT_TRUE(fa2.open(a, &error));  // duplicates preserved

  const auto stats = CurrentIoReadStats();
  EXPECT_EQ(stats.files_opened, 3u);
  EXPECT_EQ(stats.bytes_mapped, 4u + 8u + 4u);
  const auto paths = IoReadPaths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], a);
  EXPECT_EQ(paths[1], b);
  EXPECT_EQ(paths[2], a);

  ResetIoReadStats();
  EXPECT_EQ(CurrentIoReadStats().files_opened, 0u);
  EXPECT_TRUE(IoReadPaths().empty());
}

TEST_F(IoFaultTest, CheckedFileAppendAndReopen) {
  {
    CheckedFile f;
    ASSERT_TRUE(f.open(path("log.bin")));
    ASSERT_TRUE(f.write("abc"));
    ASSERT_TRUE(f.close());
  }
  {
    CheckedFile f;
    ASSERT_TRUE(f.open(path("log.bin"), /*append=*/true));
    ASSERT_TRUE(f.write("def"));
    ASSERT_TRUE(f.close());
  }
  std::ifstream in(path("log.bin"), std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "abcdef");

  CheckedFile unopened;
  EXPECT_FALSE(unopened.write("never"));
  EXPECT_FALSE(unopened.ok());
}

}  // namespace
}  // namespace bismark::core
