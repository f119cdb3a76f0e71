// Crash-safety tests: checkpoint format validation and campaign resume.
//
// The load-bearing property is bit-identity — a campaign interrupted at an
// arbitrary point and resumed must emit a summary CSV byte-equal to an
// uninterrupted run (docs/ROBUSTNESS.md). Everything else here defends the
// resume path's failure modes: truncated/corrupt/foreign checkpoint files
// must be rejected loudly, never silently resumed into garbage.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <random>
#include <sstream>
#include <string>

#include "experiment/campaign.h"
#include "experiment/checkpoint.h"
#include "experiment/dataset.h"
#include "util/fault_injection.h"

namespace wsnlink::experiment {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

Checkpoint SampleCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.meta.base_seed = 2013;
  checkpoint.meta.packet_count = 50;
  checkpoint.meta.stride = 4000;
  checkpoint.meta.space_size = 48384;
  checkpoint.meta.config_count = 13;
  checkpoint.rows.push_back({0, false, "", "10,11,3,30,5,50,80,1,2,3"});
  checkpoint.rows.push_back({5, true, "injected fault at sweep.worker",
                             "10,11,3,30,5,50,80,0,0,0"});
  checkpoint.rows.push_back({12, false, "", "40,31,1,90,1,200,100,4,5,6"});
  return checkpoint;
}

/// Small, fast campaign shared by the resume tests: ~13 configurations.
CampaignOptions SmallCampaign(const std::string& csv,
                              const std::string& checkpoint) {
  CampaignOptions options;
  options.packet_count = 20;
  options.stride = 4000;
  options.base_seed = 77;
  options.summary_csv_path = csv;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every = 2;
  options.collect_counters = false;
  return options;
}

TEST(Checkpoint, WriteReadRoundTrip) {
  const std::string path = TempPath("wsn_ckpt_roundtrip.ckpt");
  const Checkpoint original = SampleCheckpoint();
  WriteCheckpoint(path, original);

  const Checkpoint loaded = ReadCheckpoint(path);
  EXPECT_EQ(loaded.meta, original.meta);
  ASSERT_EQ(loaded.rows.size(), original.rows.size());
  for (std::size_t i = 0; i < loaded.rows.size(); ++i) {
    EXPECT_EQ(loaded.rows[i].index, original.rows[i].index);
    EXPECT_EQ(loaded.rows[i].failed, original.rows[i].failed);
    EXPECT_EQ(loaded.rows[i].error, original.rows[i].error);
    EXPECT_EQ(loaded.rows[i].csv_row, original.rows[i].csv_row);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileRejected) {
  EXPECT_THROW((void)ReadCheckpoint(TempPath("wsn_ckpt_nonexistent.ckpt")),
               CheckpointError);
}

TEST(Checkpoint, TruncatedFileRejected) {
  const std::string path = TempPath("wsn_ckpt_truncated.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  const std::string contents = ReadFile(path);

  // Chop at every prefix length that drops at least the end line: all must
  // be rejected, none may crash.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, contents.size() / 2,
        contents.size() - 2}) {
    WriteFile(path, contents.substr(0, keep));
    EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, BadMagicRejected) {
  const std::string path = TempPath("wsn_ckpt_magic.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  std::string contents = ReadFile(path);
  contents[0] = 'X';
  WriteFile(path, contents);
  EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, VersionMismatchRejected) {
  const std::string path = TempPath("wsn_ckpt_version.ckpt");
  // Future-versioned file with a correct checksum: the version gate, not
  // the checksum, must reject it.
  std::string body = "wsnlink-checkpoint 999\n";
  std::ostringstream out;
  out << body << "end " << std::hex << std::setw(16) << std::setfill('0')
      << CheckpointChecksum(body) << "\n";
  WriteFile(path, out.str());
  try {
    (void)ReadCheckpoint(path);
    FAIL() << "version 999 was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, ChecksumMismatchRejected) {
  const std::string path = TempPath("wsn_ckpt_checksum.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  std::string contents = ReadFile(path);
  // Flip one payload byte (a digit of base_seed) without touching the
  // stored checksum.
  const std::size_t pos = contents.find("2013");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = '9';
  WriteFile(path, contents);
  try {
    (void)ReadCheckpoint(path);
    FAIL() << "bit-flipped checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TrailingGarbageRejected) {
  const std::string path = TempPath("wsn_ckpt_trailing.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  WriteFile(path, ReadFile(path) + "row 3 ok\t\t1,2,3\n");
  EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptionFuzzNeverCrashesOrMisparses) {
  const std::string path = TempPath("wsn_ckpt_fuzz.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  const std::string pristine = ReadFile(path);

  std::mt19937 rng(20150629);
  std::uniform_int_distribution<std::size_t> pos_dist(0, pristine.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = pristine;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = pos_dist(rng) % mutated.size();
      switch (rng() % 3) {
        case 0:  // flip
          mutated[pos] = static_cast<char>(byte_dist(rng));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // truncate
          mutated.resize(pos);
          break;
      }
      if (mutated.empty()) break;
    }
    WriteFile(path, mutated);
    // A mutation may cancel out (e.g. flipping a byte to itself); anything
    // else must surface as CheckpointError — never a crash, never a
    // silently wrong parse of a checksummed file.
    try {
      const Checkpoint loaded = ReadCheckpoint(path);
      EXPECT_EQ(loaded.meta, SampleCheckpoint().meta)
          << "trial " << trial << ": corrupted checkpoint parsed differently";
    } catch (const CheckpointError&) {
      // Expected for essentially every mutation.
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, ChecksumContinueMatchesOneShotHash) {
  const std::string a = "wsnlink-servecache 2\nversion_tag t\n";
  const std::string b = "entries 1\nentry x\n";
  EXPECT_EQ(CheckpointChecksumContinue(CheckpointChecksum(a), b),
            CheckpointChecksum(a + b));
  EXPECT_EQ(CheckpointChecksumContinue(CheckpointChecksum(a), ""),
            CheckpointChecksum(a));
}

TEST(Checkpoint, AppendedCommitStillVerifies) {
  const std::string path = TempPath("wsn_ckpt_append.txt");
  ChecksummedTail tail = WriteChecksummedFile(path, "header\nfirst\n");
  const std::string written = ReadFile(path);
  EXPECT_EQ(tail.size, written.size());
  EXPECT_EQ(tail.hash, CheckpointChecksum(written));

  AppendChecksummedFile(path, "second\n", &tail);
  const std::string grown = ReadFile(path);
  EXPECT_EQ(grown.compare(0, written.size(), written), 0);
  EXPECT_EQ(tail.size, grown.size());
  EXPECT_EQ(tail.hash, CheckpointChecksum(grown));
  // The final end line covers every earlier byte, the first end included.
  EXPECT_EQ(VerifyChecksummedBody(grown, path), written + "second\n");

  // A failed append rolls the file back and leaves the tail untouched.
  const ChecksummedTail before = tail;
  {
    util::ScopedFaultInjection injection;
    injection->FailNth("checkpoint.write", 0);
    EXPECT_THROW(AppendChecksummedFile(path, "third\n", &tail),
                 CheckpointError);
  }
  EXPECT_EQ(ReadFile(path), grown);
  EXPECT_EQ(tail.size, before.size);
  EXPECT_EQ(tail.hash, before.hash);
  std::filesystem::remove(path);
}

TEST(CampaignResume, InterruptedRunResumesBitIdentical) {
  const std::string ref_csv = TempPath("wsn_resume_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_out.csv");
  const std::string ckpt = TempPath("wsn_resume.ckpt");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(resumed_csv);

  // Reference: one uninterrupted run.
  const auto reference = RunCampaign(SmallCampaign(ref_csv, ""));
  EXPECT_TRUE(reference.complete);

  // Interrupted run: stop after 5 fresh completions (threads=1 so the
  // cancel budget is exact — a wide pool could drain all 13 configs before
  // the predicate fires). The resumed run goes back to the default pool,
  // so byte-identity is also checked across thread counts. No CSV yet.
  CampaignOptions interrupted = SmallCampaign(resumed_csv, ckpt);
  interrupted.max_configs = 5;
  interrupted.threads = 1;
  const auto partial = RunCampaign(interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_FALSE(std::filesystem::exists(resumed_csv));
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Resume: restores the checkpointed rows, runs the rest, writes the CSV.
  CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
  resume.resume = true;
  const auto resumed = RunCampaign(resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.configs_resumed, 5u);
  EXPECT_LT(resumed.configs_resumed, resumed.configurations);

  // The headline guarantee: byte-for-byte equality.
  EXPECT_EQ(ReadFile(resumed_csv), ReadFile(ref_csv));

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, DelayQuantileColumnsSurviveResume) {
  // The summary schema's delay_p50_ms / delay_p99_ms / delay_max_ms
  // columns ride through the checkpoint as serialized CSV rows; a resumed
  // campaign must restore them bit-exactly and keep them internally
  // ordered. (Byte-identity above already implies this; parsing the rows
  // back pins the schema <-> struct mapping itself.)
  const std::string ref_csv = TempPath("wsn_resume_delay_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_delay_out.csv");
  const std::string ckpt = TempPath("wsn_resume_delay.ckpt");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(resumed_csv);

  (void)RunCampaign(SmallCampaign(ref_csv, ""));
  CampaignOptions interrupted = SmallCampaign(resumed_csv, ckpt);
  interrupted.max_configs = 5;
  interrupted.threads = 1;
  (void)RunCampaign(interrupted);
  CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
  resume.resume = true;
  (void)RunCampaign(resume);

  const auto reference = ReadSummaryCsv(ref_csv);
  const auto resumed = ReadSummaryCsv(resumed_csv);
  ASSERT_EQ(reference.size(), resumed.size());
  ASSERT_FALSE(reference.empty());
  bool any_delivered = false;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Bit-exact: the resumed rows come from the checkpoint, not a re-run.
    EXPECT_EQ(reference[i].measured.delay_p50_ms,
              resumed[i].measured.delay_p50_ms)
        << "row " << i;
    EXPECT_EQ(reference[i].measured.p99_delay_ms,
              resumed[i].measured.p99_delay_ms)
        << "row " << i;
    EXPECT_EQ(reference[i].measured.delay_max_ms,
              resumed[i].measured.delay_max_ms)
        << "row " << i;
    if (resumed[i].measured.delivered_unique > 0) {
      any_delivered = true;
      EXPECT_GT(resumed[i].measured.delay_p50_ms, 0.0) << "row " << i;
      EXPECT_LE(resumed[i].measured.delay_p50_ms,
                resumed[i].measured.p99_delay_ms)
          << "row " << i;
      EXPECT_LE(resumed[i].measured.p99_delay_ms,
                resumed[i].measured.delay_max_ms)
          << "row " << i;
    }
  }
  EXPECT_TRUE(any_delivered);

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, CompletedCampaignReemitsIdenticalCsv) {
  const std::string csv = TempPath("wsn_resume_complete.csv");
  const std::string ckpt = TempPath("wsn_resume_complete.ckpt");
  std::filesystem::remove(ckpt);

  CampaignOptions options = SmallCampaign(csv, ckpt);
  const auto first = RunCampaign(options);
  EXPECT_TRUE(first.complete);
  const std::string first_bytes = ReadFile(csv);

  options.resume = true;
  const auto second = RunCampaign(options);
  EXPECT_TRUE(second.complete);
  // Everything restored, nothing re-simulated.
  EXPECT_EQ(second.configs_resumed, second.configurations);
  EXPECT_EQ(ReadFile(csv), first_bytes);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, SeedContractMismatchRejected) {
  const std::string csv = TempPath("wsn_resume_contract.csv");
  const std::string ckpt = TempPath("wsn_resume_contract.ckpt");
  std::filesystem::remove(ckpt);

  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.max_configs = 3;
  (void)RunCampaign(options);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Rows measured under seed 77 must not seed a campaign keyed to 78.
  CampaignOptions mismatched = SmallCampaign(csv, ckpt);
  mismatched.resume = true;
  mismatched.base_seed = 78;
  EXPECT_THROW((void)RunCampaign(mismatched), CheckpointError);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, CheckpointWriteFaultDegradesGracefully) {
  const std::string csv = TempPath("wsn_resume_fault.csv");
  const std::string ckpt = TempPath("wsn_resume_fault.ckpt");
  std::filesystem::remove(ckpt);

  util::ScopedFaultInjection injection;
  injection->FailAfter("checkpoint.write", 0);  // disk stays full

  const auto result = RunCampaign(SmallCampaign(csv, ckpt));
  // The campaign completes and delivers its CSV despite every checkpoint
  // write failing; the failure is reported, not thrown.
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_error.empty());
  EXPECT_NE(result.checkpoint_write_error.find("checkpoint"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(csv));
  // The atomic tmp+rename protocol never published a bad file.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(ckpt + ".tmp"));

  std::filesystem::remove(csv);
}

TEST(CampaignResume, FaultedCheckpointWriteLeavesPreviousIntact) {
  const std::string csv = TempPath("wsn_resume_prev.csv");
  const std::string ckpt = TempPath("wsn_resume_prev.ckpt");
  std::filesystem::remove(ckpt);

  // First: a healthy partial run leaves a valid checkpoint.
  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.max_configs = 3;
  (void)RunCampaign(options);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  const std::string before = ReadFile(ckpt);

  // Then: resume with all checkpoint writes failing. The run completes and
  // the pre-existing checkpoint file is byte-identical to before.
  util::ScopedFaultInjection injection;
  injection->FailAfter("checkpoint.write", 0);
  CampaignOptions resume = SmallCampaign(csv, ckpt);
  resume.resume = true;
  const auto result = RunCampaign(resume);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_error.empty());
  EXPECT_EQ(ReadFile(ckpt), before);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

}  // namespace
}  // namespace wsnlink::experiment
