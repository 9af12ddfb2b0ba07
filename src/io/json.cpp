#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <utility>

#include "base/error.hpp"

namespace hetero::io {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  std::size_t verbatim = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto u = static_cast<unsigned char>(s[i]);
    if (u != '"' && u != '\\' && u >= 0x20) continue;
    out.append(s.substr(verbatim, i - verbatim));
    verbatim = i + 1;
    switch (u) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[u >> 4];
        out += kHex[u & 0xF];
      }
    }
  }
  out.append(s.substr(verbatim));
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_bool(std::string& out, bool b) { out += b ? "true" : "false"; }

void append_integer(std::string& out, std::uint64_t n) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, n).ptr);
}

/// [e0,e1,...] with each element written by `append_one(out, e)`.
template <typename Range, typename AppendOne>
void append_array(std::string& out, const Range& values,
                  AppendOne append_one) {
  out += '[';
  bool first = true;
  for (const auto& v : values) {
    if (!first) out += ',';
    first = false;
    append_one(out, v);
  }
  out += ']';
}

void append_measures(std::string& out, const core::MeasureSet& m) {
  out += "{\"mph\":";
  append_json_number(out, m.mph);
  out += ",\"tdh\":";
  append_json_number(out, m.tdh);
  out += ",\"tma\":";
  append_json_number(out, m.tma);
  out += '}';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_escaped(out, s);
  return out;
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // general + precision 17 is specified as printf's %.17g.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                std::chars_format::general, 17)
                      .ptr);
}

std::string json_number(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

std::string to_json(const core::MeasureSet& measures) {
  std::string out;
  append_measures(out, measures);
  return out;
}

std::string to_json(const core::EnvironmentReport& report,
                    const core::EcsMatrix& ecs) {
  const auto& detail = report.tma_detail;
  const auto& sf = detail.standard_form;
  std::string out = "{\"measures\":";
  append_measures(out, report.measures);
  out += ",\"alternatives\":{\"ratio\":";
  append_json_number(out, report.mph_alt_ratio);
  out += ",\"geometric\":";
  append_json_number(out, report.mph_alt_geometric);
  out += ",\"cov\":";
  append_json_number(out, report.mph_alt_cov);
  out += "},\"machines\":";
  append_array(out, ecs.machine_names(), append_quoted);
  out += ",\"machine_performances\":";
  append_array(out, report.machine_performances, append_json_number);
  out += ",\"tasks\":";
  append_array(out, ecs.task_names(), append_quoted);
  out += ",\"task_difficulties\":";
  append_array(out, report.task_difficulties, append_json_number);
  out += ",\"tma_detail\":{\"used_standard_form\":";
  append_bool(out, detail.used_standard_form);
  out += ",\"used_blocked_path\":";
  append_bool(out, detail.used_blocked_path);
  out += ",\"singular_values\":";
  append_array(out, detail.singular_values, append_json_number);
  out += ",\"sinkhorn_iterations\":";
  append_integer(out, sf.iterations);
  out += ",\"converged\":";
  append_bool(out, sf.converged);
  out += ",\"residual\":";
  append_json_number(out, sf.residual);
  out += "}}";
  return out;
}

std::string to_json(const core::EtcMatrix& etc) {
  std::string out = "{\"tasks\":";
  append_array(out, etc.task_names(), append_quoted);
  out += ",\"machines\":";
  append_array(out, etc.machine_names(), append_quoted);
  out += ",\"etc\":[";
  for (std::size_t i = 0; i < etc.task_count(); ++i) {
    if (i) out += ',';
    out += '[';
    for (std::size_t j = 0; j < etc.machine_count(); ++j) {
      if (j) out += ',';
      append_json_number(out, etc(i, j));
    }
    out += ']';
  }
  out += "]}";
  return out;
}

std::string to_json(const sched::ScheduleSummary& summary) {
  std::string out = "{\"heuristic\":";
  append_quoted(out, summary.heuristic);
  out += ",\"makespan\":";
  append_json_number(out, summary.makespan);
  out += ",\"assignment\":";
  append_array(out, summary.assignment, append_integer);
  out += ",\"machine_loads\":";
  append_array(out, summary.machine_loads, append_json_number);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue.

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.value_.emplace<bool>(b);
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.value_.emplace<double>(n);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.value_.emplace<std::string>(std::move(s));
  return v;
}

JsonValue JsonValue::make_array(Array a) {
  JsonValue v;
  v.value_.emplace<Array>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(Object o) {
  JsonValue v;
  v.value_.emplace<Object>(std::move(o));
  return v;
}

bool JsonValue::as_bool() const {
  detail::require_value(is_bool(), "json: value is not a boolean");
  return *std::get_if<bool>(&value_);
}

double JsonValue::as_number() const {
  detail::require_value(is_number(), "json: value is not a number");
  return *std::get_if<double>(&value_);
}

const std::string& JsonValue::as_string() const {
  detail::require_value(is_string(), "json: value is not a string");
  return *std::get_if<std::string>(&value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  detail::require_value(is_array(), "json: value is not an array");
  return *std::get_if<Array>(&value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  detail::require_value(is_object(), "json: value is not an object");
  return *std::get_if<Object>(&value_);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  const Object* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  for (const auto& [k, v] : *object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  detail::require_value(v != nullptr,
                        "json: missing object member \"" + std::string(key) +
                            "\"");
  return *v;
}

// ---------------------------------------------------------------------------
// Recursive-descent parser.

namespace {

std::vector<std::string> string_array(const JsonValue& v, const char* what) {
  std::vector<std::string> out;
  detail::require_value(v.is_array(), what);
  out.reserve(v.as_array().size());
  for (const auto& e : v.as_array()) out.push_back(e.as_string());
  return out;
}

constexpr int kMaxDepth = 128;
// Number tokens this long or longer are rejected outright.
constexpr std::size_t kMaxNumberChars = 64;

/// Moves stack[base, end) into a container sized once, and pops it.
template <typename Stack>
Stack pop_frame(Stack& stack, std::size_t base) {
  Stack frame(std::make_move_iterator(stack.begin() + base),
              std::make_move_iterator(stack.end()));
  stack.erase(stack.begin() + base, stack.end());
  return frame;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    finish();
    return v;
  }

  EtcDocument parse_etc_document() {
    EtcDocument doc;
    skip_whitespace();
    doc.root = pos_ < text_.size() && text_[pos_] == '{'
                   ? parse_object(0, &doc.etc)
                   : parse_value(0);
    finish();
    return doc;
  }

  EtcField parse_etc() {
    EtcField field = read_etc(0);
    finish();
    return field;
  }

 private:
  void finish() {
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ValueError("json parse error at byte " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::make_null();
      default: return JsonValue::make_number(parse_number());
    }
  }

  // Containers gather their children on the parser's stacks (members_,
  // elements_) above a base mark, so a nested container's frame sits on
  // top of its parent's and is popped before the parent resumes. With
  // `etc` set, the first "etc" member goes to the typed reader (both
  // matrix forms, or bare rows only when not `labelled`) and later ones
  // are checked and dropped.
  JsonValue parse_object(int depth, std::optional<EtcField>* etc = nullptr,
                         bool labelled = true) {
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object({});
    }
    const std::size_t base = members_.size();
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      if (etc != nullptr && key == "etc") {
        if (*etc)
          parse_value(depth + 1);
        else
          *etc = labelled ? read_etc(depth + 1) : read_rows(depth + 1);
      } else {
        JsonValue value = parse_value(depth + 1);
        members_.emplace_back(std::move(key), std::move(value));
      }
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(pop_frame(members_, base));
  }

  JsonValue parse_array(int depth) {
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array({});
    }
    const std::size_t base = elements_.size();
    while (true) {
      elements_.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(pop_frame(elements_, base));
  }

  // Typed ETC reader. Each read_* stands in for parse_value(depth) at the
  // same position: it consumes the same bytes and fails with the same
  // message at the same offset, so the only difference is what it builds.
  // A shape or type error is recorded in the field (the first one, in the
  // order a reader of the tree meets them) and reading goes on, because a
  // syntax error anywhere in the document still takes precedence.

  /// Labelled object or bare rows.
  EtcField read_etc(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (peek() != '{') return read_rows(depth);
    std::optional<EtcField> rows;
    const JsonValue labels = parse_object(depth, &rows, /*labelled=*/false);
    if (!rows) return failed("json: missing object member \"etc\"");
    try {
      if (const JsonValue* t = labels.find("tasks"))
        rows->task_names =
            string_array(*t, "json etc: \"tasks\" must be an array");
      if (const JsonValue* m = labels.find("machines"))
        rows->machine_names =
            string_array(*m, "json etc: \"machines\" must be an array");
    } catch (const Error&) {
      rows->error = std::current_exception();
    }
    return std::move(*rows);
  }

  /// An array of equally long rows of numbers or nulls.
  EtcField read_rows(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (peek() != '[') {
      parse_value(depth);
      return failed("json etc: expected a non-empty array of rows");
    }
    ++pos_;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return failed("json etc: expected a non-empty array of rows");
    }
    if (depth + 1 > kMaxDepth) fail("nesting too deep");
    EtcField field;
    while (true) {
      skip_whitespace();
      if (peek() == '[') {
        read_row(depth + 1, field);
      } else {
        parse_value(depth + 1);
        if (!field.error)
          field.error = value_error(field.rows == 0
                                        ? "json etc: rows must be non-empty "
                                          "arrays"
                                        : "json: value is not an array");
      }
      ++field.rows;
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return field;
  }

  /// One row, appended to field.values; the first row fixes field.cols.
  void read_row(int depth, EtcField& field) {
    const std::size_t row_start = pos_;
    ++pos_;  // '['
    std::size_t n = 0;
    bool non_number = false;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
    } else {
      if (depth + 1 > kMaxDepth) fail("nesting too deep");
      while (true) {
        skip_whitespace();
        switch (peek()) {
          case 'n':
            if (!consume_literal("null")) fail("invalid literal");
            // The writer's NaN/infinity policy: null is "cannot run".
            field.values.push_back(std::numeric_limits<double>::infinity());
            break;
          case '{': case '[': case '"': case 't': case 'f':
            parse_value(depth + 1);
            non_number = true;
            break;
          default: field.values.push_back(parse_number());
        }
        ++n;
        skip_whitespace();
        const char c = peek();
        ++pos_;
        if (c == ']') break;
        if (c != ',') fail("expected ',' or ']' in array");
      }
    }
    if (field.rows == 0) {
      field.cols = n;
      // Room for as many rows of this length as the rest of the text
      // holds: one allocation when later rows are no shorter, a regrowth
      // at worst.
      field.values.reserve(
          n * (1 + (text_.size() - pos_) / (pos_ - row_start)));
    }
    if (field.error) return;
    if (field.cols == 0)
      field.error = value_error("json etc: rows must be non-empty arrays");
    else if (n != field.cols)
      field.error =
          std::make_exception_ptr(DimensionError("json etc: ragged rows"));
    else if (non_number)
      field.error = value_error("json: value is not a number");
  }

  static std::exception_ptr value_error(const char* what) {
    return std::make_exception_ptr(ValueError(what));
  }

  static EtcField failed(const char* what) {
    EtcField field;
    field.error = value_error(what);
    return field;
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto u = static_cast<unsigned char>(text_[pos_]);
        if (u == '"' || u == '\\' || u < 0x20) break;
        ++pos_;
      }
      out.append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("lone high surrogate");
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  std::size_t digits() {
    const std::size_t start = pos_;
    while (at_digit()) ++pos_;
    return pos_ - start;
  }

  double parse_number() {
    const std::size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    const std::size_t int_start = pos_;
    std::uint64_t integer = 0;  // exact while at most 19 digits
    for (; at_digit(); ++pos_)
      integer = integer * 10 + static_cast<unsigned>(text_[pos_] - '0');
    const std::size_t int_digits = pos_ - int_start;
    if (int_digits == 0) fail("invalid number");
    // JSON forbids leading zeros: "01" is two tokens, not a number.
    if (text_[int_start] == '0' && int_digits > 1)
      fail("leading zeros are not allowed");
    bool plain_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      plain_integer = false;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      plain_integer = false;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("digits required in exponent");
    }
    const std::size_t len = pos_ - start;
    if (len >= kMaxNumberChars) fail("number token too long");
    // Below 10^15 < 2^53 every integer is a double: the conversion is
    // exact, so it is the value from_chars rounds to (-0 included).
    if (plain_integer && int_digits <= 15) {
      const auto value = static_cast<double>(integer);
      return negative ? -value : value;
    }
    // The token is a valid JSON number, which from_chars reads in place.
    const char* first = text_.data() + start;
    double value = 0.0;
    if (std::from_chars(first, first + len, value).ec == std::errc())
      return value;
    // Out of range: strtod (which needs NUL termination, hence the copy)
    // resolves overflow to ±inf and underflow to 0 or a subnormal.
    char buf[kMaxNumberChars];
    text_.copy(buf, len, start);
    buf[len] = '\0';
    return std::strtod(buf, nullptr);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  JsonValue::Array elements_;
  JsonValue::Object members_;
};

void append_json(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::null: out += "null"; break;
    case JsonValue::Kind::boolean: append_bool(out, v.as_bool()); break;
    case JsonValue::Kind::number: append_json_number(out, v.as_number()); break;
    case JsonValue::Kind::string: append_quoted(out, v.as_string()); break;
    case JsonValue::Kind::array: append_array(out, v.as_array(), append_json); break;
    case JsonValue::Kind::object:
      out += '{';
      for (std::size_t i = 0; i < v.as_object().size(); ++i) {
        const auto& [key, member] = v.as_object()[i];
        if (i) out += ',';
        append_quoted(out, key);
        out += ':';
        append_json(out, member);
      }
      out += '}';
      break;
  }
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

EtcDocument parse_etc_document(std::string_view text) {
  return Parser(text).parse_etc_document();
}

core::EtcMatrix etc_from_json(std::string_view text) {
  return Parser(text).parse_etc().take();
}

core::EtcMatrix EtcField::take() {
  if (error) std::rethrow_exception(error);
  return core::EtcMatrix(
      linalg::Matrix::from_row_major(rows, cols, std::move(values)),
      std::move(task_names), std::move(machine_names));
}

std::string to_json(const JsonValue& value) {
  std::string out;
  append_json(out, value);
  return out;
}

LineFramer::LineFramer(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void LineFramer::feed(std::string_view bytes) {
  // Compact before growing: once the consumed prefix dominates the buffer,
  // shifting the live tail down keeps memory proportional to the unframed
  // remainder instead of the whole stream.
  if (start_ > 0 && start_ >= buffer_.size() / 2) {
    buffer_.erase(0, start_);
    scan_ -= start_;
    start_ = 0;
  }
  if (discarding_) {
    // Only the resync newline matters; nothing before it is kept.
    const std::size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) return;
    discarding_ = false;
    pending_oversized_ = true;  // report the truncated frame exactly once
    bytes.remove_prefix(nl + 1);
  }
  buffer_.append(bytes);
}

std::optional<LineFramer::Frame> LineFramer::next() {
  if (pending_oversized_) {
    // The discard-mode line just resynchronized; deliver its truncated
    // head (saved when the cap tripped) exactly once.
    pending_oversized_ = false;
    Frame f;
    f.oversized = true;
    f.line = std::move(oversize_head_);
    oversize_head_.clear();
    return f;
  }
  const std::size_t nl = buffer_.find('\n', scan_);
  if (nl == std::string::npos) {
    scan_ = buffer_.size();
    if (max_frame_bytes_ > 0 && buffer_.size() - start_ > max_frame_bytes_) {
      // Cap exceeded mid-line: keep a truncated head for the error reply,
      // drop the rest until the stream resynchronizes on a newline.
      oversize_head_ = buffer_.substr(start_, max_frame_bytes_);
      buffer_.erase(start_);
      scan_ = buffer_.size();
      discarding_ = true;
    }
    return std::nullopt;
  }
  Frame f;
  f.line = buffer_.substr(start_, nl - start_);
  start_ = nl + 1;
  scan_ = start_;
  if (max_frame_bytes_ > 0 && f.line.size() > max_frame_bytes_) {
    // The whole line arrived in-buffer before the cap check ran (one big
    // feed); flag it oversized and truncate like the streaming path.
    f.line.resize(max_frame_bytes_);
    f.oversized = true;
  }
  return f;
}

std::uint64_t integer_from_json(const JsonValue& value, double max,
                                const char* what) {
  detail::require_value(value.is_number(), what);
  const double n = value.as_number();
  detail::require_value(n >= 0 && n == std::floor(n) && n <= max, what);
  return static_cast<std::uint64_t>(n);
}

namespace {

std::size_t index_from_json(const JsonValue& v, const char* what) {
  return static_cast<std::size_t>(integer_from_json(v, 1e15, what));
}

}  // namespace

std::vector<CellUpdate> cell_updates_from_json(const JsonValue& value,
                                               std::string_view value_key) {
  detail::require_value(value.is_array(),
                        "delta: cell list must be an array");
  std::vector<CellUpdate> out;
  out.reserve(value.as_array().size());
  for (const JsonValue& cell : value.as_array()) {
    detail::require_value(cell.is_object(),
                          "delta: each cell must be an object");
    CellUpdate u;
    u.task = index_from_json(cell.at("task"),
                             "delta: \"task\" must be a nonnegative integer");
    u.machine = index_from_json(
        cell.at("machine"), "delta: \"machine\" must be a nonnegative integer");
    const JsonValue& v = cell.at(value_key);
    detail::require_value(v.is_number(),
                          "delta: cell value must be a number");
    u.value = v.as_number();
    out.push_back(u);
  }
  return out;
}

std::vector<std::vector<double>> number_lists_from_json(
    const JsonValue& value) {
  detail::require_value(value.is_array(),
                        "delta: expected an array of numeric arrays");
  std::vector<std::vector<double>> out;
  out.reserve(value.as_array().size());
  for (const JsonValue& row : value.as_array()) {
    detail::require_value(row.is_array(),
                          "delta: expected an array of numeric arrays");
    std::vector<double> numbers;
    numbers.reserve(row.as_array().size());
    for (const JsonValue& n : row.as_array()) {
      detail::require_value(n.is_number(),
                            "delta: entries must be numbers (null is not "
                            "allowed in streaming deltas)");
      numbers.push_back(n.as_number());
    }
    out.push_back(std::move(numbers));
  }
  return out;
}

std::vector<std::size_t> index_list_from_json(const JsonValue& value) {
  detail::require_value(value.is_array(),
                        "delta: expected an array of indices");
  std::vector<std::size_t> out;
  out.reserve(value.as_array().size());
  for (const JsonValue& v : value.as_array())
    out.push_back(
        index_from_json(v, "delta: indices must be nonnegative integers"));
  return out;
}

core::MeasureSet measure_set_from_json(const JsonValue& value) {
  // Null is the writer's encoding for a non-finite measure (NaN policy);
  // surface it as NaN rather than failing the read.
  const auto number = [](const JsonValue& v) {
    return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                       : v.as_number();
  };
  core::MeasureSet m;
  m.mph = number(value.at("mph"));
  m.tdh = number(value.at("tdh"));
  m.tma = number(value.at("tma"));
  return m;
}

sched::ScheduleSummary schedule_summary_from_json(const JsonValue& value) {
  sched::ScheduleSummary s;
  s.heuristic = value.at("heuristic").as_string();
  s.makespan = value.at("makespan").is_null()
                   ? std::numeric_limits<double>::infinity()
                   : value.at("makespan").as_number();
  for (const auto& e : value.at("assignment").as_array())
    s.assignment.push_back(index_from_json(
        e, "json schedule: assignment entries must be nonnegative integers"));
  // A load of null is an incapable assignment serialized under the
  // NaN/infinity policy; map it back to +infinity like the ETC reader.
  for (const auto& e : value.at("machine_loads").as_array())
    s.machine_loads.push_back(e.is_null()
                                  ? std::numeric_limits<double>::infinity()
                                  : e.as_number());
  return s;
}

}  // namespace hetero::io
