// Crash recovery end to end: inject a failure at each WAL fail point in
// the middle of an INSERT batch, "crash" (drop the shell without any
// save), restart, and require that the recovered database answers
// exactly like an uncrashed control database that ran only the
// acknowledged statements -- at every engine thread count. Also the
// torn-tail and orphan-sweep halves of the recovery contract
// (docs/durability.md).
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "shell/shell.h"
#include "test_util.h"
#include "storage/buffer_pool.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace fuzzydb {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fuzzydb_recovery_" + name;
  const std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

/// Feeds one statement, returning whether the shell acknowledged it.
bool Feed(Shell* shell, const std::string& line) {
  std::ostringstream out;
  shell->clear_error();
  shell->FeedLine(line, out);
  return !shell->had_error();
}

std::string Select(Shell* shell, size_t threads) {
  shell->set_num_threads(threads);
  std::ostringstream out;
  shell->clear_error();
  shell->FeedLine("SELECT T.X FROM T;", out);
  EXPECT_FALSE(shell->had_error()) << out.str();
  return out.str();
}

std::string InsertStatement(int i) {
  return "INSERT INTO T VALUES (" + std::to_string(i) + ") DEGREE 0.5;";
}

/// Names of all entries in `dir` with `suffix`.
std::vector<std::string> EntriesWithSuffix(const std::string& dir,
                                           const std::string& suffix) {
  std::vector<std::string> hits;
  const std::string listing = dir + "/.listing";
  const std::string cmd = "ls -1 '" + dir + "' > '" + listing + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(listing);
  std::string name;
  while (std::getline(in, name)) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      hits.push_back(name);
    }
  }
  (void)std::remove(listing.c_str());
  return hits;
}

// The crash matrix: one run per fail point, each losing a different
// statement of the batch (wal/append and wal/fsync fail the first
// armed insert; wal/rotate fails whichever insert fills the segment).
TEST(RecoveryTest, CrashMatrixMatchesUncrashedControlAtEveryThreadCount) {
  const struct {
    const char* point;
    const char* dir_name;
  } kCases[] = {
      {"wal/append", "crash_append"},
      {"wal/fsync", "crash_fsync"},
      {"wal/rotate", "crash_rotate"},
  };
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.point);
    const std::string dir = TempDir(test_case.dir_name);
    wal::WalOptions options;
    options.fsync = wal::FsyncMode::kAlways;
    options.segment_bytes = 512;  // force rotations inside the batch

    constexpr int kBatch = 12;
    std::vector<bool> acked(kBatch, false);
    {
      Shell victim;
      victim.set_quiet(true);
      std::ostringstream sink;
      ASSERT_OK(victim.EnableWal(dir, options, sink));
      ASSERT_TRUE(Feed(&victim, "CREATE TABLE T (X FUZZY);"));
      FailPoints::Arm(test_case.point, /*failures=*/1);
      for (int i = 0; i < kBatch; ++i) {
        acked[i] = Feed(&victim, InsertStatement(i));
      }
      FailPoints::DisarmAll();
      // The victim shell is destroyed here with no checkpoint and no
      // .save: the log is the only thing the restart can use.
    }
    int lost = 0;
    for (int i = 0; i < kBatch; ++i) {
      if (!acked[i]) ++lost;
    }
    ASSERT_EQ(lost, 1) << "expected exactly one injected failure";

    // The control ran only the acknowledged statements, no WAL at all.
    Shell control;
    control.set_quiet(true);
    ASSERT_TRUE(Feed(&control, "CREATE TABLE T (X FUZZY);"));
    for (int i = 0; i < kBatch; ++i) {
      if (acked[i]) {
        ASSERT_TRUE(Feed(&control, InsertStatement(i)));
      }
    }

    Shell recovered;
    recovered.set_quiet(true);
    std::ostringstream sink;
    ASSERT_OK(recovered.EnableWal(dir, options, sink));

    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::string expected = Select(&control, threads);
      const std::string actual = Select(&recovered, threads);
      EXPECT_FALSE(actual.empty());
      EXPECT_EQ(actual, expected);
    }
  }
}

TEST(RecoveryTest, FailedCheckpointKeepsEveryAcknowledgedStatement) {
  const std::string dir = TempDir("ckpt_crash");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kAlways;
  {
    Shell victim;
    victim.set_quiet(true);
    std::ostringstream sink;
    ASSERT_OK(victim.EnableWal(dir, options, sink));
    ASSERT_TRUE(Feed(&victim, "CREATE TABLE T (X FUZZY);"));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Feed(&victim, InsertStatement(i)));
    }
    ASSERT_TRUE(Feed(&victim, "CHECKPOINT;"));
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(Feed(&victim, InsertStatement(i)));
    }
    FailPoints::Arm("wal/checkpoint");
    EXPECT_FALSE(Feed(&victim, "CHECKPOINT;"));
    FailPoints::DisarmAll();
  }

  Shell control;
  control.set_quiet(true);
  ASSERT_TRUE(Feed(&control, "CREATE TABLE T (X FUZZY);"));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Feed(&control, InsertStatement(i)));
  }

  Shell recovered;
  recovered.set_quiet(true);
  std::ostringstream sink;
  ASSERT_OK(recovered.EnableWal(dir, options, sink));
  EXPECT_EQ(Select(&recovered, 2), Select(&control, 2));

  // The failed checkpoint left no temp manifest and no stray image: the
  // directory holds only segments, the live manifest, and its image.
  EXPECT_TRUE(EntriesWithSuffix(dir, ".tmp").empty());
  ASSERT_OK_AND_ASSIGN(const wal::CheckpointMeta meta,
                       wal::ReadCheckpointMeta(dir));
  const std::vector<std::string> images = EntriesWithSuffix(dir, "");
  for (const std::string& name : images) {
    if (name.rfind("ckpt_", 0) == 0) {
      EXPECT_EQ(name, meta.image_dir);
    }
  }
}

TEST(RecoveryTest, TornTailIsTruncatedAndDataSurvives) {
  const std::string dir = TempDir("torn");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kAlways;
  {
    Shell victim;
    victim.set_quiet(true);
    std::ostringstream sink;
    ASSERT_OK(victim.EnableWal(dir, options, sink));
    ASSERT_TRUE(Feed(&victim, "CREATE TABLE T (X FUZZY);"));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(Feed(&victim, InsertStatement(i)));
    }
  }
  // The crash tore the last append: garbage after the valid prefix.
  ASSERT_OK_AND_ASSIGN(const std::vector<uint64_t> seqs,
                       wal::ListWalSegments(dir));
  ASSERT_FALSE(seqs.empty());
  {
    std::ofstream tail(wal::WalSegmentPath(dir, seqs.back()),
                       std::ios::binary | std::ios::app);
    tail << "half-written frame";
  }

  Shell control;
  control.set_quiet(true);
  ASSERT_TRUE(Feed(&control, "CREATE TABLE T (X FUZZY);"));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Feed(&control, InsertStatement(i)));
  }

  Shell recovered;  // not quiet: the recovery summary is the assertion
  std::ostringstream summary;
  ASSERT_OK(recovered.EnableWal(dir, options, summary));
  EXPECT_NE(summary.str().find("torn tail"), std::string::npos)
      << summary.str();
  recovered.set_quiet(true);
  EXPECT_EQ(Select(&recovered, 2), Select(&control, 2));

  // A second restart is clean: the tail was truncated, not just skipped.
  Shell again;
  std::ostringstream second;
  ASSERT_OK(again.EnableWal(dir, options, second));
  EXPECT_EQ(second.str().find("torn tail"), std::string::npos)
      << second.str();
}

TEST(RecoveryTest, CorruptCheckpointImageFailsRecovery) {
  const std::string dir = TempDir("bad_image");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  {
    Shell victim;
    victim.set_quiet(true);
    std::ostringstream sink;
    ASSERT_OK(victim.EnableWal(dir, options, sink));
    ASSERT_TRUE(Feed(&victim, "CREATE TABLE R (C0 FUZZY, C1 FUZZY);"));
    ASSERT_TRUE(Feed(&victim, "INSERT INTO R VALUES (1, ABOUT(5, 1));"));
    ASSERT_TRUE(Feed(&victim, "CHECKPOINT;"));
  }
  // ABOUT(5, 1) is trap(4, 5, 5, 6); the image now holds trap(9, 5, 5, 6).
  ASSERT_OK_AND_ASSIGN(const wal::CheckpointMeta meta,
                       wal::ReadCheckpointMeta(dir));
  ASSERT_TRUE(testing_util::PatchFile(
      dir + "/" + meta.image_dir + "/rel_0.fdb",
      testing_util::DoubleBytes({4.0, 5.0, 5.0, 6.0}),
      testing_util::DoubleBytes({9.0, 5.0, 5.0, 6.0})));

  BufferPool pool(64);
  const auto recovered = wal::OpenWalDatabase(dir, options, &pool);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("corners"), std::string::npos)
      << recovered.status().ToString();
}

TEST(RecoveryTest, SweepsCheckpointDebrisOnRestart) {
  const std::string dir = TempDir("sweep");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  {
    Shell victim;
    victim.set_quiet(true);
    std::ostringstream sink;
    ASSERT_OK(victim.EnableWal(dir, options, sink));
    ASSERT_TRUE(Feed(&victim, "CREATE TABLE T (X FUZZY);"));
    ASSERT_TRUE(Feed(&victim, InsertStatement(1)));
  }
  // Debris of an interrupted checkpoint: a temp manifest and an image
  // directory no manifest names.
  {
    std::ofstream tmp(dir + "/checkpoint.meta.tmp");
    tmp << "half-written manifest";
  }
  const std::string dead_image = dir + "/ckpt_777";
  ASSERT_EQ(std::system(("mkdir '" + dead_image + "' && touch '" +
                         dead_image + "/catalog.fdb'")
                            .c_str()),
            0);

  Shell recovered;
  std::ostringstream summary;
  ASSERT_OK(recovered.EnableWal(dir, options, summary));
  EXPECT_NE(summary.str().find("swept 2 orphans"), std::string::npos)
      << summary.str();
  EXPECT_TRUE(EntriesWithSuffix(dir, ".tmp").empty());
  EXPECT_TRUE(EntriesWithSuffix(dir, "ckpt_777").empty());
}

TEST(RecoveryTest, SysWalIsQueryableAndSaveIsRefusedUnderWal) {
  const std::string dir = TempDir("syswal");
  wal::WalOptions options;
  options.fsync = wal::FsyncMode::kOff;
  Shell shell;
  shell.set_quiet(true);
  std::ostringstream sink;
  ASSERT_OK(shell.EnableWal(dir, options, sink));
  ASSERT_TRUE(Feed(&shell, "CREATE TABLE T (X FUZZY);"));
  ASSERT_TRUE(Feed(&shell, InsertStatement(1)));

  std::ostringstream out;
  shell.clear_error();
  shell.FeedLine("SELECT segment, first_lsn FROM sys.wal WITH D >= 0.0;",
                 out);
  EXPECT_FALSE(shell.had_error()) << out.str();
  EXPECT_NE(out.str().find("wal_"), std::string::npos) << out.str();

  // Unlogged persistence paths are closed while the WAL is attached.
  std::ostringstream refused;
  shell.clear_error();
  shell.FeedLine(".save " + dir + "/img", refused);
  EXPECT_TRUE(shell.had_error());
  EXPECT_NE(refused.str().find("CHECKPOINT"), std::string::npos)
      << refused.str();
}

}  // namespace
}  // namespace fuzzydb
