// BatchRunner tests: manifest parsing (including the classified rejection
// of malformed lines), the crash-safe JSONL journal (resume, truncated
// trailing lines, byte-exact round trip of escaped ids and messages),
// bounded transient retry, stop_after crash simulation, and the summary's
// failure-class accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "nshot/batch.hpp"
#include "nshot/journal.hpp"
#include "sim/conformance.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

// The fast three-signal cycle used across the robustness tests.
const char* kXyzG = R"(
.model xyz
.inputs x
.outputs y z
.graph
x+ y+
y+ z+
z+ x-
x- y-
y- z-
z- x+
.marking { <z-,x+> }
.end
)";

BatchOptions quiet_options() {
  BatchOptions options;
  options.pipeline.collect_observability = false;
  options.pipeline.conformance.runs = 2;
  return options;
}

// Scratch file helper: unique path under the gtest temp dir, removed on
// destruction so journal tests do not leak state between runs.
struct ScratchFile {
  explicit ScratchFile(const std::string& name) : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  void write(const std::string& text) const {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  std::string read() const {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  int lines() const {
    const std::string text = read();
    int n = 0;
    for (const char c : text) n += (c == '\n');
    return n;
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// Manifest parsing
// ---------------------------------------------------------------------------

TEST(BatchManifestTest, ParsesIdsSpecsAndParams) {
  const auto entries = BatchRunner::parse_manifest(
      "# comment\n"
      "\n"
      "a bench:converta seed=7 runs=3\n"
      "b gen:42 deadline_ms=100\n"
      "c file:circuits/x.g\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, "a");
  EXPECT_EQ(entries[0].spec, "bench:converta");
  EXPECT_EQ(entries[0].params.at("seed"), "7");
  EXPECT_EQ(entries[0].params.at("runs"), "3");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].spec, "gen:42");
  EXPECT_EQ(entries[2].spec, "file:circuits/x.g");
}

TEST(BatchManifestTest, RejectsMalformedLinesWithTheLineNumber) {
  const auto expect_invalid = [](const std::string& text, const std::string& needle) {
    try {
      BatchRunner::parse_manifest(text);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_invalid("lonely_id\n", "line 1");
  expect_invalid("x nosuchscheme:foo\n", "line 1");
  expect_invalid("x bench:converta not_an_override\n", "line 1");
  expect_invalid("x bench:converta bogus_key=1\n", "bogus_key");
  expect_invalid("a bench:converta\n\na bench:vme\n", "duplicate");
}

TEST(BatchManifestTest, SoakManifestIsParsableAndSeeded) {
  const std::string text = BatchRunner::soak_manifest(5, 99, "deadline_ms=1000");
  const auto entries = BatchRunner::parse_manifest(text);
  ASSERT_EQ(entries.size(), 5u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.spec.rfind("gen:", 0), 0u) << entry.spec;
    EXPECT_EQ(entry.params.at("deadline_ms"), "1000");
  }
  // Distinct derived seeds per run.
  EXPECT_NE(entries[0].spec, entries[1].spec);
}

// ---------------------------------------------------------------------------
// Execution, isolation, retry
// ---------------------------------------------------------------------------

TEST(BatchRunTest, FailuresAreIsolatedAndClassified) {
  ScratchFile circuit("batch_test_xyz.g");
  circuit.write(kXyzG);
  BatchRunner runner(quiet_options());
  const auto entries = BatchRunner::parse_manifest(
      "good file:" + circuit.path + "\n" +
      "missing file:" + circuit.path + ".does-not-exist\n" +
      "good2 bench:converta runs=2\n");
  const BatchSummary summary = runner.run(entries);
  EXPECT_EQ(summary.total, 3);
  EXPECT_EQ(summary.executed, 3);
  EXPECT_EQ(summary.succeeded, 2);
  EXPECT_EQ(summary.failed, 1);
  ASSERT_EQ(summary.runs.size(), 3u);
  EXPECT_TRUE(summary.runs[0].ok);
  ASSERT_FALSE(summary.runs[1].ok);
  EXPECT_EQ(summary.runs[1].code, ErrorCode::kInputInvalid);
  EXPECT_TRUE(summary.runs[2].ok);
  EXPECT_EQ(summary.failures_by_code.at("input_invalid"), 1);
  // Deterministic failures are never retried.
  EXPECT_EQ(summary.runs[1].attempts, 1);
  EXPECT_EQ(summary.retries, 0);
}

TEST(BatchRunTest, TransientDeadlineFailuresAreRetried) {
  BatchOptions options = quiet_options();
  options.max_retries = 2;
  BatchRunner runner(options);
  // A sub-microsecond budget fails deterministically on every attempt, so
  // the runner spends exactly max_retries extra attempts before giving up.
  const auto entries = BatchRunner::parse_manifest("slow bench:converta deadline_ms=0.000001\n");
  const BatchSummary summary = runner.run(entries);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_FALSE(summary.runs[0].ok);
  EXPECT_EQ(summary.runs[0].code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(summary.runs[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(summary.retries, 2);
  EXPECT_EQ(summary.failures_by_code.at("deadline_exceeded"), 1);
}

// ---------------------------------------------------------------------------
// Journal: checkpointing, resume, truncation tolerance
// ---------------------------------------------------------------------------

TEST(BatchJournalTest, StopAfterSimulatesACrashAndResumeSkipsTheJournaledPrefix) {
  ScratchFile journal("batch_test_journal.jsonl");
  const auto entries =
      BatchRunner::parse_manifest(BatchRunner::soak_manifest(6, 7, "runs=2"));

  BatchOptions first = quiet_options();
  first.journal_path = journal.path;
  first.stop_after = 2;
  const BatchSummary crashed = BatchRunner(first).run(entries);
  EXPECT_TRUE(crashed.stopped_early);
  EXPECT_EQ(crashed.executed, 2);
  EXPECT_EQ(journal.lines(), 2);

  BatchOptions second = quiet_options();
  second.journal_path = journal.path;
  const BatchSummary resumed = BatchRunner(second).run(entries);
  EXPECT_FALSE(resumed.stopped_early);
  EXPECT_EQ(resumed.total, 6);
  EXPECT_EQ(resumed.resumed, 2);
  EXPECT_EQ(resumed.executed, 4);
  EXPECT_EQ(journal.lines(), 6);
  ASSERT_EQ(resumed.runs.size(), 6u);
  EXPECT_TRUE(resumed.runs[0].resumed);
  EXPECT_TRUE(resumed.runs[1].resumed);
  EXPECT_EQ(resumed.runs[0].attempts, 0);
  EXPECT_FALSE(resumed.runs[2].resumed);

  // A third invocation is a pure no-op: everything resumes.
  const BatchSummary done = BatchRunner(second).run(entries);
  EXPECT_EQ(done.resumed, 6);
  EXPECT_EQ(done.executed, 0);
}

TEST(BatchJournalTest, TruncatedTrailingLineIsReExecuted) {
  ScratchFile journal("batch_test_truncated.jsonl");
  ScratchFile circuit("batch_test_trunc_xyz.g");
  circuit.write(kXyzG);
  const auto entries = BatchRunner::parse_manifest(
      "a file:" + circuit.path + "\nb file:" + circuit.path + "\n");

  // Simulate a crash mid-write: run "a"'s line is complete, run "b"'s was
  // cut off before the closing brace.
  journal.write(
      "{\"id\":\"a\",\"status\":\"ok\",\"attempts\":1,\"elapsed_ms\":1.0}\n"
      "{\"id\":\"b\",\"status\":\"ok\",\"atte");

  BatchOptions options = quiet_options();
  options.journal_path = journal.path;
  const BatchSummary summary = BatchRunner(options).run(entries);
  EXPECT_EQ(summary.resumed, 1);
  EXPECT_EQ(summary.executed, 1);
  ASSERT_EQ(summary.runs.size(), 2u);
  EXPECT_TRUE(summary.runs[0].resumed);
  EXPECT_FALSE(summary.runs[1].resumed);
  EXPECT_TRUE(summary.runs[1].ok);
}

TEST(BatchJournalTest, ResumedFailuresKeepTheirRecordedClassification) {
  ScratchFile journal("batch_test_failed_resume.jsonl");
  journal.write(
      "{\"id\":\"x\",\"status\":\"failed\",\"code\":\"unimplementable\",\"stage\":\"synthesize\","
      "\"message\":\"no trigger\",\"attempts\":1,\"elapsed_ms\":2.0}\n");
  BatchOptions options = quiet_options();
  options.journal_path = journal.path;
  const auto entries = BatchRunner::parse_manifest("x bench:converta\n");
  const BatchSummary summary = BatchRunner(options).run(entries);
  EXPECT_EQ(summary.executed, 0);
  EXPECT_EQ(summary.resumed, 1);
  EXPECT_EQ(summary.failed, 1);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_FALSE(summary.runs[0].ok);
  EXPECT_EQ(summary.runs[0].code, ErrorCode::kUnimplementable);
  EXPECT_EQ(summary.failures_by_code.at("unimplementable"), 1);
}

/// A random string over the characters a journal must escape: quotes,
/// backslashes, every control character (NUL included), DEL, and one- to
/// four-byte UTF-8 sequences.
std::string random_journal_text(Rng& rng) {
  static const char* const kPieces[] = {"a", "Z", "7", " ", "\"", "\\", "/", "{", "}", ":",
                                        ",", "\x7f", "\xc3\xa9", "\xe2\x82\xac",
                                        "\xf0\x9d\x84\x9e", "\\u0041", "\\\""};
  std::string text;
  const std::uint64_t length = 1 + rng.next_below(24);
  for (std::uint64_t i = 0; i < length; ++i) {
    if (rng.next_bool(0.25))
      text.push_back(static_cast<char>(rng.next_below(0x20)));  // control character
    else
      text += kPieces[rng.next_below(std::size(kPieces))];
  }
  return text;
}

TEST(BatchJournalTest, IdsAndMessagesRoundTripByteExactThroughResume) {
  ScratchFile journal("batch_test_roundtrip.jsonl");
  Rng rng(0x10a5ULL);
  std::vector<BatchRunResult> written;
  std::string text;
  for (int i = 0; i < 200; ++i) {
    BatchRunResult result;
    result.id = random_journal_text(rng) + "#" + std::to_string(i);  // distinct ids
    result.ok = rng.next_bool(0.3);
    if (!result.ok) {
      result.code = ErrorCode::kDeadlineExceeded;
      result.stage = random_journal_text(rng);
      result.message = random_journal_text(rng);
    }
    result.attempts = 1;
    const std::string line = journal_line(result);
    ASSERT_EQ(line.find('\n'), std::string::npos);
    text += line + "\n";
    written.push_back(result);
  }
  text += "{\"id\":\"torn\",\"status\":\"ok\",\"atte";  // a crash mid-write
  journal.write(text);

  const std::map<std::string, std::string> journaled = read_journal(journal.path);
  ASSERT_EQ(journaled.size(), written.size());
  for (const BatchRunResult& expected : written) {
    const auto it = journaled.find(expected.id);
    ASSERT_NE(it, journaled.end()) << expected.id;
    const BatchRunResult resumed = journal_result(it->first, it->second);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.id, expected.id);
    EXPECT_EQ(resumed.ok, expected.ok);
    if (!expected.ok) {
      EXPECT_EQ(resumed.code, expected.code);
      EXPECT_EQ(resumed.stage, expected.stage);
      EXPECT_EQ(resumed.message, expected.message);
    }
  }
}

TEST(BatchJournalTest, QuotedIdComesBackUnescaped) {
  ScratchFile journal("batch_test_quoted.jsonl");
  BatchRunResult result;
  result.id = "job \"7\"";
  result.ok = true;
  journal.write(journal_line(result) + "\n");
  const std::map<std::string, std::string> journaled = read_journal(journal.path);
  ASSERT_EQ(journaled.size(), 1u);
  EXPECT_EQ(journaled.begin()->first, "job \"7\"");
}

TEST(BatchJournalTest, MalformedLinesAreSkippedNotThrown) {
  ScratchFile journal("batch_test_malformed.jsonl");
  journal.write(
      "not json at all\n"
      "[\"an\", \"array\"]\n"
      "{\"id\":7,\"status\":\"ok\"}\n"
      "{\"id\":\"no-status\"}\n"
      "{\"id\":\"dup\",\"id\":\"dup\",\"status\":\"ok\"}\n"
      "{\"id\":\"bad\\escape\",\"status\":\"ok\"}\n"
      "{\"id\":\"good\",\"status\":\"ok\",\"attempts\":1}\n");
  std::map<std::string, std::string> journaled;
  ASSERT_NO_THROW(journaled = read_journal(journal.path));
  ASSERT_EQ(journaled.size(), 1u);
  EXPECT_EQ(journaled.begin()->first, "good");
}

// ---------------------------------------------------------------------------
// Kernel-fallback accounting and summary shape
// ---------------------------------------------------------------------------

TEST(BatchRunTest, KernelFallbacksSurfaceInTheSummary) {
  sim::testing::set_kernel_fault_injection(true);
  BatchRunner runner(quiet_options());
  const auto entries = BatchRunner::parse_manifest("k bench:converta runs=2 verify_kernels=1\n");
  const BatchSummary summary = runner.run(entries);
  sim::testing::set_kernel_fault_injection(false);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_TRUE(summary.runs[0].ok) << summary.runs[0].message;
  EXPECT_EQ(summary.runs[0].kernel_fallbacks, 1);
}

TEST(BatchSummaryTest, JsonCarriesTheSchemaRequiredFields) {
  BatchRunner runner(quiet_options());
  const auto entries = BatchRunner::parse_manifest(
      "ok bench:converta runs=2\nbad bench:no_such_benchmark\n");
  const std::string json = runner.run(entries).to_json();
  for (const char* field :
       {"\"total\":", "\"executed\":", "\"succeeded\":", "\"failed\":", "\"resumed\":",
        "\"retries\":", "\"stopped_early\":", "\"failures_by_code\":", "\"runs\":",
        "\"kernel_fallbacks\":", "\"elapsed_ms\":", "\"attempts\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " missing from " << json;
  }
  EXPECT_NE(json.find("\"code\":\"input_invalid\""), std::string::npos) << json;
}

}  // namespace
}  // namespace nshot
