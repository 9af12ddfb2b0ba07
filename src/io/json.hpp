// JSON emission and parsing for machine-readable experiment output and the
// characterization service protocol.
//
// The writer side dumps measure reports, scheduler summaries, and ETC
// matrices that downstream notebooks/scripts can consume without
// screen-scraping the console tables. Every writer appends into one
// std::string; numbers go through append_json_number, which renders
// std::to_chars(general, 17) — byte for byte what printf("%.17g") prints.
//
// The parser side is a small recursive-descent reader producing a JsonValue
// tree; it accepts exactly the JSON the writers emit (service requests
// round-trip through it), plus standard escapes and surrogate pairs. A
// JsonValue is one std::variant (40 bytes); the parser gathers array
// elements and object members on a stack it owns and moves each container
// into storage sized exactly once. The rows of an ETC matrix — the bulk of
// a service request — never become a tree: the same parser reads them
// straight into one row-major buffer (parse_etc_document, etc_from_json),
// with the generic path's syntax errors and byte offsets.
//
// Numbers: an integer token of at most 15 digits is converted exactly
// through uint64_t (every such value is a double, so the result is the
// correctly rounded one). Any other token is read by std::from_chars
// straight from the input; strtod runs only when from_chars reports the
// value out of range, so overflow (±inf) and underflow (0 or subnormal)
// resolve exactly as strtod resolves them.
//
// NaN/infinity policy: JSON has no representation for them, so the writer
// emits null wherever a non-finite double appears; readers that expect a
// number in such a slot must decide what null means (the ETC reader maps it
// back to +infinity, i.e. "cannot run").
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/etc_matrix.hpp"
#include "core/measures.hpp"
#include "sched/makespan.hpp"

namespace hetero::io {

// ---------------------------------------------------------------------------
// Writer primitives.

/// Escapes a string for inclusion in JSON (quotes, backslashes, control
/// characters).
std::string json_escape(const std::string& s);

/// Renders a double as JSON: finite -> 17 significant digits, exactly
/// printf("%.17g") (not the shortest form, but every double round-trips);
/// infinities/NaN -> null, since JSON has no representation for them.
std::string json_number(double value);

/// Appends json_number(value) to `out` without a temporary string: the one
/// number primitive every writer in the library goes through.
void append_json_number(std::string& out, double value);

/// {"mph": ..., "tdh": ..., "tma": ...}
std::string to_json(const core::MeasureSet& measures);

/// Full environment report including per-machine/per-task vectors, the
/// alternative measures, and the standard-form diagnostics.
std::string to_json(const core::EnvironmentReport& report,
                    const core::EcsMatrix& ecs);

/// ETC matrix with labels; "cannot run" entries serialize as null.
std::string to_json(const core::EtcMatrix& etc);

/// Scheduler summary: heuristic name, assignment, makespan, machine loads.
std::string to_json(const sched::ScheduleSummary& summary);

// ---------------------------------------------------------------------------
// Parsed JSON tree.

/// One JSON value. Objects preserve member order (so a parse -> write
/// round trip is byte-stable), and numbers are always doubles — the only
/// numeric type the library traffics in.
class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, array, object };
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  /// Default-constructs null.
  JsonValue() = default;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

  Kind kind() const noexcept { return static_cast<Kind>(value_.index()); }
  bool is_null() const noexcept { return kind() == Kind::null; }
  bool is_bool() const noexcept { return kind() == Kind::boolean; }
  bool is_number() const noexcept { return kind() == Kind::number; }
  bool is_string() const noexcept { return kind() == Kind::string; }
  bool is_array() const noexcept { return kind() == Kind::array; }
  bool is_object() const noexcept { return kind() == Kind::object; }

  /// Typed accessors; throw ValueError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup: nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Object member lookup; throws ValueError when absent.
  const JsonValue& at(std::string_view key) const;

 private:
  // Alternatives in Kind order: kind() is the variant index.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws ValueError with a byte offset on malformed
/// input; nesting beyond 128 levels is rejected.
JsonValue parse_json(std::string_view text);

/// Writes a JsonValue back out (canonical: no whitespace, members in stored
/// order, non-finite numbers as null).
std::string to_json(const JsonValue& value);

// ---------------------------------------------------------------------------
// Typed ETC matrix reader.

/// One ETC value read straight into a row-major buffer: to_json(EtcMatrix)
/// output ({"tasks":[..],"machines":[..],"etc":[[..]]}, labels optional)
/// or a bare array of rows. A null entry is +infinity ("cannot run"). The
/// first shape or type error (a ragged row, a non-number, an empty matrix,
/// a non-string label) is held rather than thrown, so that a caller can
/// report its own checks first; take() throws it.
struct EtcField {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;  // row-major, rows * cols
  std::vector<std::string> task_names;
  std::vector<std::string> machine_names;
  std::exception_ptr error;

  /// Builds the matrix (EtcMatrix validates the entries), or throws the
  /// held error: ValueError, or DimensionError for ragged rows.
  core::EtcMatrix take();
};

/// A document whose top-level "etc" member (the first one; an object's
/// lookup also finds the first) is read by the typed reader instead of
/// into the tree.
struct EtcDocument {
  /// The document without its top-level "etc" members.
  JsonValue root;
  /// Set when the document is an object with an "etc" member.
  std::optional<EtcField> etc;
};

/// parse_json for a request: the same syntax, errors and tree, except that
/// the top-level "etc" member goes to the typed reader.
EtcDocument parse_etc_document(std::string_view text);

/// Reads an ETC matrix from to_json(EtcMatrix) output or a bare array of
/// rows. Throws ValueError on malformed JSON and shape/type errors,
/// DimensionError on ragged rows.
core::EtcMatrix etc_from_json(std::string_view text);

// ---------------------------------------------------------------------------
// Resumable NDJSON framing.

/// Incremental newline-delimited frame decoder: the per-connection parse
/// state of the async service front end. feed() accepts arbitrary byte
/// splits (a frame may arrive one byte at a time or many frames in one
/// read) and next() hands back completed lines in arrival order; the scan
/// position is remembered across calls, so decoding a stream is O(bytes)
/// regardless of how the reads were split. Extracting frames from a
/// LineFramer and parsing them yields byte-identical results to splitting
/// the concatenated stream at '\n' — asserted by the svc_equiv tests.
///
/// Oversized lines (no newline within `max_frame_bytes`) are not buffered
/// without bound: the framer switches to discard mode, drops bytes until
/// the next newline, and emits the truncated frame with `oversized` set so
/// the caller can answer with a protocol error and keep the connection —
/// the stream resynchronizes on the newline.
class LineFramer {
 public:
  /// Frames longer than `max_frame_bytes` (excluding the newline) are
  /// truncated and flagged instead of buffered. 0 means unlimited.
  explicit LineFramer(std::size_t max_frame_bytes = 0);

  struct Frame {
    std::string line;      // without the trailing '\n' (a trailing '\r' stays)
    bool oversized = false;  // truncated; the overflow was discarded
  };

  /// Appends a chunk of stream bytes to the parse state.
  void feed(std::string_view bytes);

  /// Extracts the next completed frame, or nullopt when every buffered
  /// byte belongs to a still-incomplete line. Call until nullopt after
  /// each feed().
  std::optional<Frame> next();

  /// Bytes buffered for the current incomplete line (discarded overflow
  /// not included).
  std::size_t pending_bytes() const noexcept { return buffer_.size() - start_; }

  /// True when a partial line is buffered (or being discarded) — i.e. EOF
  /// now would truncate a frame mid-line.
  bool mid_frame() const noexcept {
    return pending_bytes() > 0 || discarding_;
  }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
  std::size_t start_ = 0;      // offset of the current line's first byte
  std::size_t scan_ = 0;       // offset up to which '\n' search is done
  bool discarding_ = false;    // current line exceeded the cap
  bool pending_oversized_ = false;  // next completed frame is the truncated one
  std::string oversize_head_;  // truncated head kept for the error reply
};

// ---------------------------------------------------------------------------
// Readers for the report types the writers above emit.

/// Rebuilds a MeasureSet from to_json(MeasureSet) output.
core::MeasureSet measure_set_from_json(const JsonValue& value);

// ---------------------------------------------------------------------------
// Streaming delta parsing (the `update` request of the characterization
// service). Shapes are validated here; value ranges (positivity, matrix
// bounds) are the consumer's contract.

/// One (task, machine, value) triple from {"task":i,"machine":j,<key>:v}.
struct CellUpdate {
  std::size_t task = 0;
  std::size_t machine = 0;
  double value = 0.0;
};

/// Parses an array of {"task","machine",<value_key>} objects. Throws
/// ValueError unless every element is an object with nonnegative-integer
/// "task"/"machine" members and a numeric value member named `value_key`.
std::vector<CellUpdate> cell_updates_from_json(const JsonValue& value,
                                               std::string_view value_key);

/// Parses an array of numeric arrays (structural delta rows/columns).
/// Inner arrays may be empty only if the consumer tolerates it; nulls
/// (JSON's non-finite stand-in) are rejected.
std::vector<std::vector<double>> number_lists_from_json(
    const JsonValue& value);

/// Parses an array of nonnegative integer indices.
std::vector<std::size_t> index_list_from_json(const JsonValue& value);

/// Reads a nonnegative integer no larger than `max` (which must not exceed
/// 2^53, so that every accepted value is exact). Throws ValueError with
/// `what` for a non-number, a fraction, a negative value or one above `max`.
std::uint64_t integer_from_json(const JsonValue& value, double max,
                                const char* what);

/// Rebuilds a ScheduleSummary from to_json(ScheduleSummary) output.
sched::ScheduleSummary schedule_summary_from_json(const JsonValue& value);

}  // namespace hetero::io
