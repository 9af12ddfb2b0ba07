#include "io/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/measures.hpp"
#include "sched/heuristics.hpp"
#include "spec/spec_data.hpp"

namespace {

namespace io = hetero::io;
using hetero::core::EcsMatrix;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;

TEST(Json, EscapeSpecialCharacters) {
  EXPECT_EQ(io::json_escape("plain"), "plain");
  EXPECT_EQ(io::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(io::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(io::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(io::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, Numbers) {
  EXPECT_EQ(io::json_number(1.5), "1.5");
  EXPECT_EQ(io::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(io::json_number(std::nan("")), "null");
  // Round-trip precision: 17 significant digits.
  EXPECT_EQ(io::json_number(0.1), "0.10000000000000001");
}

TEST(Json, MeasureSet) {
  const hetero::core::MeasureSet m{0.5, 0.25, 0.125};
  EXPECT_EQ(io::to_json(m), "{\"mph\":0.5,\"tdh\":0.25,\"tma\":0.125}");
}

TEST(Json, EtcMatrixWithInfinity) {
  EtcMatrix etc(Matrix{{1, std::numeric_limits<double>::infinity()}, {2, 3}},
                {"a", "b"}, {"x", "y"});
  const std::string json = io::to_json(etc);
  EXPECT_NE(json.find("\"tasks\":[\"a\",\"b\"]"), std::string::npos);
  EXPECT_NE(json.find("\"machines\":[\"x\",\"y\"]"), std::string::npos);
  EXPECT_NE(json.find("[1,null]"), std::string::npos);
  EXPECT_NE(json.find("[2,3]"), std::string::npos);
}

TEST(Json, EnvironmentReportStructure) {
  const auto ecs = hetero::spec::spec_cint2006rate().to_ecs();
  const auto report = hetero::core::characterize(ecs);
  const std::string json = io::to_json(report, ecs);
  for (const char* key :
       {"\"measures\"", "\"alternatives\"", "\"machine_performances\"",
        "\"task_difficulties\"", "\"tma_detail\"", "\"sinkhorn_iterations\"",
        "\"singular_values\"", "\"400.perlbench\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Balanced braces and brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Json, ReportBooleansRenderAsJson) {
  const EcsMatrix ecs(Matrix{{1, 2}, {3, 4}});
  const auto report = hetero::core::characterize(ecs);
  const std::string json = io::to_json(report, ecs);
  EXPECT_NE(json.find("\"used_standard_form\":true"), std::string::npos);
  EXPECT_NE(json.find("\"used_blocked_path\":false"), std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
}

TEST(Json, BlockedPathFlagRendersTrue) {
  const EcsMatrix ecs(Matrix{{1, 2, 3}, {4, 5, 6}, {7, 8, 9.5}});
  hetero::core::TmaOptions opts;
  opts.large.min_elements = 1;  // force the blocked path at toy size
  const auto report = hetero::core::characterize(ecs, {}, opts);
  const std::string json = io::to_json(report, ecs);
  EXPECT_NE(json.find("\"used_blocked_path\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser.

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(io::parse_json("null").is_null());
  EXPECT_EQ(io::parse_json("true").as_bool(), true);
  EXPECT_EQ(io::parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(io::parse_json("-1.5e2").as_number(), -150.0);
  EXPECT_EQ(io::parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(io::parse_json("\"a\\\"b\\\\c\\n\\t\"").as_string(),
            "a\"b\\c\n\t");
  // \u0041 = 'A'; surrogate pair U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(io::parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(io::parse_json("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, ObjectsAndArrays) {
  const auto v = io::parse_json("{\"a\":[1,2,3],\"b\":{\"c\":null}}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("b").at("c").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1}extra", "[1 2]", "\"\\q\"", "nan", "infinity", "01"}) {
    EXPECT_THROW(io::parse_json(bad), hetero::ValueError) << bad;
  }
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(io::parse_json(deep), hetero::ValueError);
}

TEST(JsonParse, ValueWriterRoundTripsExactly) {
  const std::string doc =
      "{\"s\":\"a\\\"b\",\"n\":0.10000000000000001,\"z\":null,"
      "\"t\":true,\"l\":[1,2],\"o\":{}}";
  EXPECT_EQ(io::to_json(io::parse_json(doc)), doc);
}

// ---------------------------------------------------------------------------
// Writer -> parser round trips for every report type the writer emits.

TEST(JsonRoundTrip, MeasureSet) {
  const hetero::core::MeasureSet m{0.5, 0.25, 0.125};
  const auto back = io::measure_set_from_json(io::parse_json(io::to_json(m)));
  EXPECT_DOUBLE_EQ(back.mph, m.mph);
  EXPECT_DOUBLE_EQ(back.tdh, m.tdh);
  EXPECT_DOUBLE_EQ(back.tma, m.tma);
}

TEST(JsonRoundTrip, MeasureSetNanPolicy) {
  // The writer emits null for non-finite numbers; the reader surfaces that
  // as NaN rather than failing.
  const hetero::core::MeasureSet m{std::nan(""), 0.25,
                                   std::numeric_limits<double>::infinity()};
  const std::string json = io::to_json(m);
  EXPECT_EQ(json, "{\"mph\":null,\"tdh\":0.25,\"tma\":null}");
  const auto back = io::measure_set_from_json(io::parse_json(json));
  EXPECT_TRUE(std::isnan(back.mph));
  EXPECT_DOUBLE_EQ(back.tdh, 0.25);
  EXPECT_TRUE(std::isnan(back.tma));
}

TEST(JsonRoundTrip, EtcMatrixWithInfinityPolicy) {
  // ETC infinity ("machine cannot run task") becomes null on the wire and
  // comes back as infinity.
  EtcMatrix etc(Matrix{{1, std::numeric_limits<double>::infinity()},
                       {2, 0.1}},
                {"a", "b"}, {"x", "y"});
  const auto back = io::etc_from_json(io::to_json(etc));
  EXPECT_EQ(back.task_count(), 2u);
  EXPECT_EQ(back.machine_count(), 2u);
  EXPECT_EQ(back.task_names(), etc.task_names());
  EXPECT_EQ(back.machine_names(), etc.machine_names());
  EXPECT_DOUBLE_EQ(back(0, 0), 1.0);
  EXPECT_TRUE(std::isinf(back(0, 1)));
  // Bit-exact doubles survive the 17-digit number format.
  EXPECT_EQ(back(1, 1), 0.1);
}

TEST(JsonRoundTrip, EtcMatrixBareRows) {
  const auto etc = io::etc_from_json("[[1,2],[3,4],[5,6]]");
  EXPECT_EQ(etc.task_count(), 3u);
  EXPECT_EQ(etc.machine_count(), 2u);
  EXPECT_DOUBLE_EQ(etc(2, 1), 6.0);
}

TEST(JsonRoundTrip, EnvironmentReportMeasuresSurvive) {
  const EcsMatrix ecs(Matrix{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}});
  const auto report = hetero::core::characterize(ecs);
  const auto parsed = io::parse_json(io::to_json(report, ecs));
  const auto back = io::measure_set_from_json(parsed.at("measures"));
  EXPECT_DOUBLE_EQ(back.mph, report.measures.mph);
  EXPECT_DOUBLE_EQ(back.tdh, report.measures.tdh);
  EXPECT_DOUBLE_EQ(back.tma, report.measures.tma);
  EXPECT_EQ(parsed.at("machine_performances").as_array().size(), 3u);
  EXPECT_EQ(parsed.at("task_difficulties").as_array().size(), 3u);
}

TEST(JsonRoundTrip, ScheduleSummary) {
  EtcMatrix etc(Matrix{{1, 4}, {3, 2}, {5, 6}});
  const auto tasks = hetero::sched::one_of_each(etc);
  auto summary = hetero::sched::summarize_schedule(
      etc, tasks, "min_min", hetero::sched::map_min_min(etc, tasks));
  const auto back =
      io::schedule_summary_from_json(io::parse_json(io::to_json(summary)));
  EXPECT_EQ(back.heuristic, summary.heuristic);
  EXPECT_EQ(back.assignment, summary.assignment);
  EXPECT_DOUBLE_EQ(back.makespan, summary.makespan);
  ASSERT_EQ(back.machine_loads.size(), summary.machine_loads.size());
  for (std::size_t m = 0; m < back.machine_loads.size(); ++m)
    EXPECT_EQ(back.machine_loads[m], summary.machine_loads[m]);
}

TEST(JsonRoundTrip, ScheduleSummaryRejectsNonIndexAssignment) {
  for (const char* entry : {"0.5", "-1", "1e999", "\"1\"", "1e16"}) {
    const std::string text =
        std::string("{\"heuristic\":\"h\",\"makespan\":1,\"assignment\":[0,") +
        entry + "],\"machine_loads\":[1]}";
    EXPECT_THROW(io::schedule_summary_from_json(io::parse_json(text)),
                 hetero::ValueError)
        << entry;
  }
}

// ---------------------------------------------------------------------------
// Number yardsticks: the writer against printf("%.17g") and the reader
// against strtod, the C library routines the library no longer calls on
// its hot path.

std::string printf17g(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

TEST(JsonNumber, MatchesPrintf17g) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.5, 1e21, 1e-5, 1e-4, 1e16, 1e17, 123456789.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon()};
  for (int e = -320; e <= 308; ++e) values.push_back(std::pow(10.0, e));
  for (int i = 0; i < 100000; ++i) values.push_back(i * 37.0 - 1e6);
  std::mt19937_64 rng(20110516);
  for (int i = 0; i < 1000000; ++i)
    values.push_back(std::bit_cast<double>(rng()));

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string expected = std::isfinite(v) ? printf17g(v) : "null";
    const std::string got = io::json_number(v);
    std::string appended = "x";
    io::append_json_number(appended, v);
    if (got != expected || appended != "x" + expected) {
      if (mismatches++ < 5)
        ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v)
                      << ": got " << got << ", printf gives " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Random JSON number tokens: integers, fractions, exponents, and long
/// (17-19 digit) mantissas.
std::string random_number_token(std::mt19937_64& rng) {
  const auto digit = [&] { return static_cast<char>('0' + rng() % 10); };
  const auto digits = [&](std::size_t n) {
    std::string d;
    for (std::size_t i = 0; i < n; ++i) d += digit();
    return d;
  };
  std::string t = rng() % 2 ? "-" : "";
  const std::size_t int_digits =
      rng() % 4 == 0 ? 17 + rng() % 3 : 1 + rng() % 6;
  t += rng() % 8 == 0 ? "0" : static_cast<char>('1' + rng() % 9) +
                                  digits(int_digits - 1);
  if (rng() % 2) t += "." + digits(1 + rng() % 19);
  if (rng() % 2) {
    t += rng() % 2 ? "e" : "E";
    const std::uint64_t sign = rng() % 3;
    if (sign) t += sign == 1 ? "+" : "-";
    t += std::to_string(rng() % 330);
  }
  return t;
}

TEST(JsonParse, NumbersMatchStrtod) {
  std::vector<std::string> tokens = {
      "0", "-0", "1e999", "-1e999", "1e-400", "-1e-400", "4.9e-324",
      "2.4703282292062327e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308",
      "0.10000000000000001", "9007199254740993", "123456789012345678901",
      "1E+2", "1e-0"};
  std::mt19937_64 rng(1401);
  for (int i = 0; i < 200000; ++i) tokens.push_back(random_number_token(rng));

  std::size_t mismatches = 0;
  for (const std::string& t : tokens) {
    const double expected = std::strtod(t.c_str(), nullptr);
    const double got = io::parse_json(t).as_number();
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(expected)) {
      if (mismatches++ < 5)
        ADD_FAILURE() << t << ": got " << printf17g(got) << ", strtod gives "
                      << printf17g(expected);
    }
  }
  EXPECT_EQ(mismatches, 0u);

  EXPECT_EQ(io::parse_json("1e999").as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(io::parse_json("-1e999").as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(io::parse_json("1e-400").as_number(), 0.0);
  EXPECT_EQ(io::parse_json("4.9e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(io::parse_json("-0").as_number()));
  EXPECT_FALSE(std::signbit(io::parse_json("0").as_number()));
}

// Integer tokens of at most 15 digits skip from_chars; the result must be
// the same double, bit for bit, on both sides of the 15/16-digit boundary
// and in an ETC row (the typed reader's path).
TEST(JsonParse, IntegerFastPathMatchesFromChars) {
  std::vector<std::string> tokens = {
      "0",  "-0", "7", "-7", "999999999999999", "-999999999999999",
      "100000000000000", "1000000000000000", "-1000000000000000",
      "9007199254740992", "9007199254740993", "18446744073709551615",
      "18446744073709551616", "99999999999999999999"};
  std::mt19937_64 rng(1408);
  for (int i = 0; i < 100000; ++i) {
    std::string t = rng() % 2 ? "-" : "";
    t += static_cast<char>('1' + rng() % 9);
    for (std::size_t d = rng() % 20; d > 0; --d)
      t += static_cast<char>('0' + rng() % 10);
    tokens.push_back(t);
  }
  std::size_t mismatches = 0;
  for (const std::string& t : tokens) {
    double expected = 1.0;
    ASSERT_EQ(std::from_chars(t.data(), t.data() + t.size(), expected).ec,
              std::errc())
        << t;
    const double got = io::parse_json(t).as_number();
    const auto doc = io::parse_etc_document("{\"etc\":[[" + t + "]]}");
    ASSERT_TRUE(doc.etc.has_value());
    ASSERT_EQ(doc.etc->values.size(), 1u);
    const auto bits = std::bit_cast<std::uint64_t>(expected);
    if (std::bit_cast<std::uint64_t>(got) != bits ||
        std::bit_cast<std::uint64_t>(doc.etc->values[0]) != bits) {
      if (mismatches++ < 5)
        ADD_FAILURE() << t << ": got " << printf17g(got) << " / "
                      << printf17g(doc.etc->values[0]) << ", from_chars gives "
                      << printf17g(expected);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(std::signbit(io::parse_etc_document("{\"etc\":[[-0]]}")
                               .etc->values[0]));
}

TEST(JsonParse, NumberTokenLengthLimit) {
  const std::string ok = "1." + std::string(61, '5');  // 63 chars
  EXPECT_EQ(io::parse_json(ok).as_number(),
            std::strtod(ok.c_str(), nullptr));
  const std::string too_long = ok + "5";  // 64 chars
  try {
    io::parse_json("[" + too_long + "]");
    ADD_FAILURE() << "a 64-char number token was accepted";
  } catch (const hetero::ValueError& e) {
    EXPECT_STREQ(e.what(), "json parse error at byte 65: number token too long");
  }
}

TEST(JsonValue, NodeIsCompact) {
  static_assert(sizeof(io::JsonValue) <= 48);
  EXPECT_LE(sizeof(io::JsonValue), 48u);
}

TEST(JsonValue, KindsAndAccessorErrors) {
  const auto v = io::parse_json("[null,true,1.5,\"s\",[],{}]");
  const auto& a = v.as_array();
  ASSERT_EQ(a.size(), 6u);
  using Kind = io::JsonValue::Kind;
  EXPECT_EQ(a[0].kind(), Kind::null);
  EXPECT_EQ(a[1].kind(), Kind::boolean);
  EXPECT_EQ(a[2].kind(), Kind::number);
  EXPECT_EQ(a[3].kind(), Kind::string);
  EXPECT_EQ(a[4].kind(), Kind::array);
  EXPECT_EQ(a[5].kind(), Kind::object);
  const auto message = [](auto&& f) {
    try {
      f();
    } catch (const hetero::ValueError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { (void)a[0].as_bool(); }),
            "json: value is not a boolean");
  EXPECT_EQ(message([&] { (void)a[1].as_number(); }),
            "json: value is not a number");
  EXPECT_EQ(message([&] { (void)a[2].as_string(); }),
            "json: value is not a string");
  EXPECT_EQ(message([&] { (void)a[3].as_array(); }),
            "json: value is not an array");
  EXPECT_EQ(message([&] { (void)a[4].as_object(); }),
            "json: value is not an object");
  EXPECT_EQ(message([&] { (void)a[5].at("k"); }),
            "json: missing object member \"k\"");
  EXPECT_EQ(a[4].find("k"), nullptr);
}

// ---------------------------------------------------------------------------
// Parse stack: containers gather children on the parser's own stacks.

std::string parse_error(const std::string& text) {
  try {
    io::parse_json(text);
  } catch (const hetero::ValueError& e) {
    return e.what();
  }
  return "no error";
}

TEST(JsonParseStack, NestedAndMixedContainers) {
  const std::string doc = "[[],[1,[2,[]]],{\"a\":[3,{\"b\":[]}]}]";
  const auto v = io::parse_json(doc);
  const auto& top = v.as_array();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_TRUE(top[0].as_array().empty());
  const auto& second = top[1].as_array();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].as_number(), 1.0);
  EXPECT_EQ(second[1].as_array()[0].as_number(), 2.0);
  EXPECT_TRUE(second[1].as_array()[1].as_array().empty());
  const auto& a = top[2].at("a").as_array();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].as_number(), 3.0);
  EXPECT_TRUE(a[1].at("b").as_array().empty());
  EXPECT_EQ(io::to_json(v), doc);
}

TEST(JsonParseStack, LargeArray) {
  std::string doc = "[";
  for (int i = 0; i < 10000; ++i) {
    if (i) doc += ',';
    doc += std::to_string(i);
  }
  doc += "]";
  const auto v = io::parse_json(doc);
  const auto& a = v.as_array();
  ASSERT_EQ(a.size(), 10000u);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(a[i].as_number(), i);
  EXPECT_EQ(io::to_json(v), doc);
}

TEST(JsonParseStack, DepthLimitIsExact) {
  // The outermost container is depth 0; depth 128 still parses.
  const auto nested = [](std::size_t n) {
    return std::string(n, '[') + std::string(n, ']');
  };
  EXPECT_NO_THROW(io::parse_json(nested(129)));
  EXPECT_EQ(parse_error(nested(130)),
            "json parse error at byte 129: nesting too deep");
  std::string objects;
  for (int i = 0; i < 130; ++i) objects += "{\"k\":";
  objects += "1" + std::string(130, '}');
  EXPECT_EQ(parse_error(objects),
            "json parse error at byte 645: nesting too deep");
}

TEST(JsonParseStack, NestedErrorsKeepMessageAndOffset) {
  EXPECT_EQ(parse_error("[[1,2],[3,"),
            "json parse error at byte 10: unexpected end of input");
  EXPECT_EQ(parse_error("[[1,2],[3 4]]"),
            "json parse error at byte 11: expected ',' or ']' in array");
  EXPECT_EQ(parse_error("{\"a\":[1,{\"b\":tru}]}"),
            "json parse error at byte 13: invalid literal");
  EXPECT_EQ(parse_error("{\"a\":[1,{\"b\":2]}"),
            "json parse error at byte 15: expected ',' or '}' in object");
  EXPECT_EQ(parse_error("[{\"a\":[\"x\ny\"]}]"),
            "json parse error at byte 10: unescaped control character in "
            "string");
  EXPECT_EQ(parse_error("[[1],[01]]"),
            "json parse error at byte 8: leading zeros are not allowed");
}

/// A seeded random JSON tree: every kind, escapes and control bytes in
/// strings, and doubles drawn from raw bit patterns.
io::JsonValue random_tree(std::mt19937_64& rng, int depth) {
  const auto random_string = [&] {
    std::string s;
    const std::size_t n = rng() % 12;
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<char>(rng() % 4 == 0 ? rng() % 0x20
                                            : 0x20 + rng() % 0x60);
    return s;
  };
  switch (depth >= 6 ? rng() % 4 : rng() % 6) {
    case 0: return io::JsonValue::make_null();
    case 1: return io::JsonValue::make_bool(rng() % 2 == 0);
    case 2:
      return io::JsonValue::make_number(
          rng() % 2 ? static_cast<double>(static_cast<int>(rng() % 2001) - 1000)
                    : std::bit_cast<double>(rng()));
    case 3: return io::JsonValue::make_string(random_string());
    case 4: {
      io::JsonValue::Array a;
      for (std::size_t n = rng() % 6; n > 0; --n)
        a.push_back(random_tree(rng, depth + 1));
      return io::JsonValue::make_array(std::move(a));
    }
    default: {
      io::JsonValue::Object o;
      for (std::size_t n = rng() % 6; n > 0; --n)
        o.emplace_back(random_string(), random_tree(rng, depth + 1));
      return io::JsonValue::make_object(std::move(o));
    }
  }
}

TEST(JsonParseStack, WriteParseWriteIsAFixpoint) {
  std::mt19937_64 rng(1402);
  for (int i = 0; i < 2000; ++i) {
    const std::string once = io::to_json(random_tree(rng, 0));
    const std::string twice = io::to_json(io::parse_json(once));
    ASSERT_EQ(twice, once) << "tree " << i;
  }
}

// ---------------------------------------------------------------------------
// Typed ETC reader. The reference reads the parse_json tree, as the
// library did before the matrix stopped going through a tree; both must
// agree on every matrix bit, every error message and its type.

EtcMatrix reference_etc(const io::JsonValue& value) {
  const io::JsonValue* rows = &value;
  std::vector<std::string> task_names, machine_names;
  const auto strings = [](const io::JsonValue& v, const char* what) {
    hetero::detail::require_value(v.is_array(), what);
    std::vector<std::string> out;
    for (const auto& e : v.as_array()) out.push_back(e.as_string());
    return out;
  };
  if (value.is_object()) {
    rows = &value.at("etc");
    if (const io::JsonValue* t = value.find("tasks"))
      task_names = strings(*t, "json etc: \"tasks\" must be an array");
    if (const io::JsonValue* m = value.find("machines"))
      machine_names = strings(*m, "json etc: \"machines\" must be an array");
  }
  hetero::detail::require_value(rows->is_array() && !rows->as_array().empty(),
                                "json etc: expected a non-empty array of rows");
  const auto& r = rows->as_array();
  const std::size_t cols =
      r.front().is_array() ? r.front().as_array().size() : 0;
  hetero::detail::require_value(cols > 0,
                                "json etc: rows must be non-empty arrays");
  Matrix values(r.size(), cols);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const auto& row = r[i].as_array();
    hetero::detail::require_dims(row.size() == cols, "json etc: ragged rows");
    for (std::size_t j = 0; j < cols; ++j)
      values(i, j) = row[j].is_null() ? std::numeric_limits<double>::infinity()
                                      : row[j].as_number();
  }
  return EtcMatrix(std::move(values), std::move(task_names),
                   std::move(machine_names));
}

/// What a reader made of a text: the matrix's bits and labels, or the
/// error's type and message.
template <typename Read>
std::string outcome(Read read) {
  try {
    const EtcMatrix etc = read();
    std::string out = "ok";
    const auto field = [&out](const std::string& f) {
      out.append(" ").append(f);
    };
    field(std::to_string(etc.task_count()));
    for (const double v : etc.values().data())
      field(std::to_string(std::bit_cast<std::uint64_t>(v)));
    for (const auto& n : etc.task_names()) field(n);
    for (const auto& n : etc.machine_names()) field(n);
    return out;
  } catch (const hetero::DimensionError& e) {
    return std::string("DimensionError: ").append(e.what());
  } catch (const hetero::ValueError& e) {
    return std::string("ValueError: ").append(e.what());
  }
}

std::string typed_outcome(const std::string& text) {
  return outcome([&] { return io::etc_from_json(text); });
}

std::string reference_outcome(const std::string& text) {
  return outcome([&] { return reference_etc(io::parse_json(text)); });
}

TEST(JsonEtcReader, ShapeAndTypeErrorsComeInTreeOrder) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[]", "ValueError: json etc: expected a non-empty array of rows"},
      {"\"x\"", "ValueError: json etc: expected a non-empty array of rows"},
      {"{\"etc\":{\"etc\":[[1]]}}",
       "ValueError: json etc: expected a non-empty array of rows"},
      {"[[]]", "ValueError: json etc: rows must be non-empty arrays"},
      {"[1,[2]]", "ValueError: json etc: rows must be non-empty arrays"},
      {"[[1],2]", "ValueError: json: value is not an array"},
      {"[[1,2],[3]]", "DimensionError: json etc: ragged rows"},
      // A row's length is checked before its entries, and a row's entries
      // before the next row's length.
      {"[[1,2],[3,\"x\",4]]", "DimensionError: json etc: ragged rows"},
      {"[[1,true],[3]]", "ValueError: json: value is not a number"},
      {"{\"tasks\":[\"a\"]}",
       "ValueError: json: missing object member \"etc\""},
      // Labels are checked before the rows.
      {"{\"etc\":[[1,\"x\"]],\"tasks\":5}",
       "ValueError: json etc: \"tasks\" must be an array"},
      {"{\"etc\":[],\"machines\":[2]}",
       "ValueError: json: value is not a string"},
      {"{\"etc\":[[1]],\"tasks\":[\"a\",\"b\"]}",
       "DimensionError: EtcMatrix/EcsMatrix: label count mismatch"},
      {"[[1,-2]]", "ValueError: EtcMatrix: entries must be positive or +inf"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(typed_outcome(text), expected) << text;
    EXPECT_EQ(reference_outcome(text), expected) << text;
  }
}

TEST(JsonEtcReader, FirstMemberOfANameWins) {
  const std::string text =
      "{\"etc\":[[1,2]],\"tasks\":[\"a\"],\"etc\":[[3]],\"tasks\":7}";
  EXPECT_EQ(typed_outcome(text), reference_outcome(text));
  EXPECT_EQ(io::etc_from_json(text).machine_count(), 2u);
  const auto doc =
      io::parse_etc_document("{\"etc\":[[1,2]],\"id\":3,\"etc\":[[3]]}");
  ASSERT_TRUE(doc.etc.has_value());
  EXPECT_EQ(doc.etc->values, (std::vector<double>{1, 2}));
  EXPECT_EQ(io::to_json(doc.root), "{\"id\":3}");
  EXPECT_FALSE(io::parse_etc_document("{\"id\":3}").etc.has_value());
  EXPECT_FALSE(io::parse_etc_document("[{\"etc\":[[1]]}]").etc.has_value());
}

/// One seeded edit: a bit flip, an inserted token, deleted bytes, or a
/// truncation.
std::string mutate_text(std::string text, std::mt19937_64& rng) {
  static const std::string kTokens[] = {
      ",", "[", "]",    "{",       "}",    ":",  "-", ".",
      "e", "null", "\"x\"", "true", "[]", "0", std::string(130, '[')};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  if (text.empty()) return kTokens[pick(std::size(kTokens))];
  switch (rng() % 4) {
    case 0:
      text[pick(text.size())] ^= static_cast<char>(1 << pick(7));
      break;
    case 1:
      text.insert(pick(text.size() + 1), kTokens[pick(std::size(kTokens))]);
      break;
    case 2: text.erase(pick(text.size()), 1 + pick(4)); break;
    default: text.resize(pick(text.size())); break;
  }
  return text;
}

// The typed reader and the tree reader agree on seeded mutations of both
// matrix forms: syntax errors (message and byte offset), shape and type
// errors, and the bits of every accepted matrix.
TEST(JsonEtcReader, MatchesTheTreeReaderOnMutatedText) {
  const EtcMatrix labelled(
      Matrix{{1.5, std::numeric_limits<double>::infinity()}, {3, 0.1},
             {2e-3, 7}},
      {"a", "b\"\t", "c"}, {"x", "y"});
  const std::vector<std::string> bases = {
      io::to_json(labelled), "[[3,1.5,9],[2,4e0,6],[7.25,null,1]]",
      "{\"machines\":[\"p\"],\"etc\":[[12],[-0.0],[1e999]],\"x\":{}}"};
  std::mt19937_64 rng(1409);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    std::string text = bases[i % bases.size()];
    for (std::size_t edits = 1 + rng() % 3; edits > 0; --edits)
      text = mutate_text(std::move(text), rng);
    const std::string expected = reference_outcome(text);
    ASSERT_EQ(typed_outcome(text), expected) << text;
    if (expected.rfind("ok", 0) == 0) ++accepted;
  }
  EXPECT_GT(accepted, 100u);  // the success path is reached too
}

// The request form: parse_etc_document fails exactly where parse_json
// fails, and otherwise keeps every top-level member but "etc" in the tree.
TEST(JsonEtcReader, DocumentMatchesParseJsonOnMutatedText) {
  const std::string base =
      "{\"id\":[1,{\"etc\":2}],\"kind\":\"measures\",\"etc\":[[1,2],[3,null]],"
      "\"deadline_ms\":5,\"etc\":{\"etc\":[[4]]}}";
  std::mt19937_64 rng(1410);
  for (int i = 0; i < 4000; ++i) {
    std::string text = base;
    for (std::size_t edits = 1 + rng() % 3; edits > 0; --edits)
      text = mutate_text(std::move(text), rng);
    std::string expected, got;
    try {
      const io::JsonValue tree = io::parse_json(text);
      io::JsonValue::Object kept;
      if (tree.is_object())
        for (const auto& member : tree.as_object())
          if (member.first != "etc") kept.push_back(member);
      const io::JsonValue* etc = tree.find("etc");
      expected = io::to_json(tree.is_object()
                                 ? io::JsonValue::make_object(kept)
                                 : tree) +
                 " | " +
                 (etc ? outcome([&] { return reference_etc(*etc); })
                      : "absent");
    } catch (const hetero::ValueError& e) {
      expected = e.what();
    }
    try {
      io::EtcDocument doc = io::parse_etc_document(text);
      got = io::to_json(doc.root) + " | " +
            (doc.etc ? outcome([&] { return doc.etc->take(); }) : "absent");
    } catch (const hetero::ValueError& e) {
      got = e.what();
    }
    ASSERT_EQ(got, expected) << text;
  }
}

}  // namespace
