// Parser-hardening tests: every malformed input under tests/corpus/ must
// be rejected with a clean Error(kInputInvalid) — never a crash, hang, or
// misclassified internal error — and content defects must name the
// offending line.  Also covers the raw-text validation (NUL bytes,
// malformed UTF-8, overlong lines) shared by all the text parsers, and
// fuzzes the serve protocol's NDJSON request parser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "logic/pla.hpp"
#include "serve/protocol.hpp"
#include "stg/g_format.hpp"
#include "stg/sg_format.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nshot {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void parse_by_extension(const fs::path& path, const std::string& text) {
  const std::string ext = path.extension().string();
  if (ext == ".g") {
    (void)stg::parse_g(text);
  } else if (ext == ".sg") {
    (void)stg::parse_sg(text);
  } else if (ext == ".pla") {
    (void)logic::parse_pla(text);
  } else {
    FAIL() << "corpus file with unknown extension: " << path;
  }
}

// ---------------------------------------------------------------------------
// Corpus sweep
// ---------------------------------------------------------------------------

TEST(ParserCorpusTest, EveryCorpusFileIsRejectedAsInputInvalid) {
  const fs::path corpus(NSHOT_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;

  // Defects that are whole-file properties, not tied to one line.
  const std::set<std::string> no_line_context = {"g_dangling_transition.g", "g_no_transitions.g"};

  int checked = 0;
  for (const auto& dirent : fs::directory_iterator(corpus)) {
    const fs::path path = dirent.path();
    if (path.filename() == "README.md") continue;
    ++checked;
    const std::string text = slurp(path);
    try {
      parse_by_extension(path, text);
      ADD_FAILURE() << path.filename() << " parsed without error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInputInvalid)
          << path.filename() << ": " << e.what();
      if (no_line_context.count(path.filename().string()) == 0) {
        EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
            << path.filename() << ": " << e.what();
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << path.filename() << " escaped as non-nshot exception: " << e.what();
    }
  }
  // The corpus must actually be populated (catches a bad NSHOT_CORPUS_DIR).
  EXPECT_GE(checked, 12);
}

// ---------------------------------------------------------------------------
// Raw-text validation specifics
// ---------------------------------------------------------------------------

TEST(CheckParserTextTest, AcceptsCleanAsciiAndUtf8) {
  check_parser_text(".model ok\n.inputs a\n", "test");
  check_parser_text("# caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\n", "test");  // 2/3/4-byte
  check_parser_text("", "test");
}

TEST(CheckParserTextTest, NamesLineAndColumnOfANulByte) {
  try {
    check_parser_text(std::string("ok\nbad\0line\n", 12), "fmt");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("fmt: line 2, column 4"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("NUL"), std::string::npos);
  }
}

TEST(CheckParserTextTest, RejectsMalformedUtf8) {
  // Bare continuation byte.
  EXPECT_THROW(check_parser_text("\x80", "t"), Error);
  // Lead byte with a non-continuation follower.
  EXPECT_THROW(check_parser_text("\xc3(", "t"), Error);
  // Truncated sequence at end of input.
  EXPECT_THROW(check_parser_text("ok \xe2\x82", "t"), Error);
  // 0xF8..0xFF are never valid leads.
  EXPECT_THROW(check_parser_text("\xfe\xff", "t"), Error);
}

TEST(CheckParserTextTest, RejectsOverlongLinesButNotLongFiles) {
  const std::string long_line(kMaxParserLine + 1, 'x');
  try {
    check_parser_text("first\n" + long_line, "fmt");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("line 2 exceeds"), std::string::npos) << e.what();
  }
  // Many short lines totalling far more than kMaxParserLine are fine.
  std::string many_lines;
  for (int i = 0; i < 3000; ++i) many_lines += std::string(60, 'y') + "\n";
  check_parser_text(many_lines, "fmt");
}

// ---------------------------------------------------------------------------
// Targeted parser diagnostics (message quality, not just classification)
// ---------------------------------------------------------------------------

TEST(ParserDiagnosticsTest, DuplicateSignalNamesTheLine) {
  try {
    (void)stg::parse_g(".model t\n.inputs a\n.outputs a\n.end\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate signal"), std::string::npos);
  }
}

TEST(ParserDiagnosticsTest, DanglingTransitionNamesTheTransition) {
  // b+ fires into the cycle but nothing ever re-enables it.
  try {
    (void)stg::parse_g(
        ".model t\n.inputs a b\n.graph\na+ a-\na- a+\nb+ a+\n.marking { <a-,a+> }\n.end\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("b+"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("dangling"), std::string::npos);
  }
}

TEST(ParserDiagnosticsTest, PlaGarbageCountsAreInputInvalidNotInternal) {
  // std::stoi would have thrown std::invalid_argument here and been
  // misclassified as an internal error by batch drivers.
  try {
    (void)logic::parse_pla(".i nonsense\n.o 1\n.e\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
}

TEST(ParserDiagnosticsTest, PlaRowWidthMismatchNamesTheRowLine) {
  try {
    (void)logic::parse_pla(".i 2\n.o 1\n01 1\n0-1 1\n.e\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// NDJSON request-line fuzz
// ---------------------------------------------------------------------------

/// Mutate one valid request line: byte flips, truncation, duplicate keys,
/// deep nesting, huge numbers, invalid UTF-8 and embedded NULs.
std::string mutate(std::string line, Rng& rng) {
  const auto at = [&](std::size_t extra = 0) {
    return static_cast<std::size_t>(rng.next_below(line.size() + extra));
  };
  switch (rng.next_below(7)) {
    case 0:  // flip 1..4 bits anywhere
      for (std::uint64_t i = 0, n = 1 + rng.next_below(4); i < n; ++i)
        line[at()] ^= static_cast<char>(1u << rng.next_below(8));
      return line;
    case 1:  // truncate
      return line.substr(0, at());
    case 2: {  // duplicate a key, with a different value of either type
      static const char* const kDuplicates[] = {
          R"("id":"dup",)", R"("kind":"stress",)", R"("spec":"gen:1",)",
          R"("client":7,)", R"("overrides":{"seed":"1"},)", R"("g_text":"",)"};
      line.insert(1, kDuplicates[rng.next_below(6)]);
      return line;
    }
    case 3: {  // deep nesting, around the parser's 64-level limit
      const std::size_t depth = 60 + rng.next_below(10);
      std::string open = "{\"overrides\":", close;
      for (std::size_t i = 0; i < depth; ++i) {
        const bool array = rng.next_bool();
        open += array ? "[" : "{\"seed\":";
        close.insert(close.begin(), array ? ']' : '}');
      }
      return open + "1" + close + "," + line.substr(1);
    }
    case 4: {  // a huge or extreme number as an override value
      static const char* const kNumbers[] = {"1e999999", "-1e400", "1e-400",
                                             "123456789012345678901234567890", "-0",
                                             "9223372036854775808", "4.9e-324"};
      return R"({"spec":"gen:1","overrides":{"seed":)" + std::string(kNumbers[rng.next_below(7)]) +
             R"(,"runs":)" + kNumbers[rng.next_below(7)] + "}}";
    }
    case 5: {  // invalid UTF-8
      static const char* const kBytes[] = {"\xff", "\xc0\x80", "\x80", "\xed\xa0\x80",
                                           "\xf4\x90\x80\x80", "\xe2\x82"};
      line.insert(at(1), kBytes[rng.next_below(6)]);
      return line;
    }
    default:  // embedded NUL
      line.insert(at(1), 1, '\0');
      return line;
  }
}

TEST(RequestParserFuzzTest, MutatedLinesParseOrFailClassified) {
  const std::vector<std::string> seeds = {
      R"({"id":"r1","client":"ci","kind":"conformance","spec":"bench:chu133",)"
      R"("overrides":{"seed":7,"deadline_ms":2000}})",
      R"({"id":"r2","kind":"stress","spec":"gen:42","overrides":{"exact":true,"runs":"3"}})",
      R"({"id":"q\"uote\\","client":"cé","g_text":".model m\n.inputs a\n.outputs b\n)"
      R"(.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n"})",
      R"({ "spec" : "file:x.g" , "overrides" : { "stress" : false , "grain" : 1.5 } })",
  };
  Rng rng(0x5eed);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string line = mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng);
    std::string canonical;
    try {
      canonical = serve::request_json(serve::parse_request(line));
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInputInvalid) << "mutation " << i << ": " << e.what();
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw a non-nshot exception: " << e.what();
      continue;
    }
    ++accepted;
    // The canonical encoding of an accepted line is a fixed point of
    // request_json ∘ parse_request.
    try {
      EXPECT_EQ(serve::request_json(serve::parse_request(canonical)), canonical)
          << "mutation " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << ": canonical line rejected: " << e.what();
    }
  }
  // Both outcomes must actually occur, or the mutators are not probing.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace nshot
