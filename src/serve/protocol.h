// JSONL wire protocol shared by every serve front end.
//
// One request per line, one reply per line. tools/ticl_served parses and
// formats through this module in both of its modes, --batch (a file or
// stdin) and TCP — the batch and network paths speak byte-identical JSON
// by construction, so they cannot drift.
//
// Request lines are flat JSON objects with scalar values:
//   {"id": "q1", "k": 4, "r": 5, "f": "sum"}
//   {"id": 2, "k": 4, "r": 3, "s": 20, "f": "avg", "non_overlapping": true}
//   {"id": 9, "admin": "apply_delta", "path": "g.d1.snap"}   (network only)
//
// Reply lines:
//   {"id": "q1", "query": "TIC k=4 r=5 f=sum", "cached": false,
//    "solve_seconds": 0.012300,
//    "communities": [{"influence": 42, "members": [1, 2, 3]}]}
//   {"id": "q1", "error": "...", "kind": "parse"}
//
// "solve_seconds" is the solve time this request paid: 0 on a cache hit
// or a coalesced wait. "communities" is always the last field, so a
// client can compare two replies' answers byte for byte from
// `"communities": ` to the end of the line.
//
// Unknown request fields are ignored (forward compatibility); unknown or
// malformed *values* of known fields are hard errors. A network listener
// cannot trust its input the way a batch pipe could, so the parser is a
// real tokenizer, not a substring scan: unterminated strings, duplicate
// keys, non-numeric k/r, fractional counts, trailing garbage and
// oversized lines are all rejected with a structured error reply.

#ifndef TICL_SERVE_PROTOCOL_H_
#define TICL_SERVE_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/query.h"
#include "core/result.h"

namespace ticl {

/// Hard cap on one request line (bytes, excluding the newline). The
/// network server must bound how much it buffers while looking for a
/// newline; the parser enforces the same cap on every line so batch and
/// network mode accept exactly the same language.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

/// Stable "kind" values carried by error replies so clients can dispatch
/// without string-matching free-text messages.
inline constexpr char kErrorKindParse[] = "parse";        // malformed line
inline constexpr char kErrorKindInvalid[] = "invalid";    // well-formed, bad query
inline constexpr char kErrorKindRejected[] = "rejected";  // admission control
inline constexpr char kErrorKindDraining[] = "draining";  // server shutting down
inline constexpr char kErrorKindAdmin[] = "admin";        // admin command failed
inline constexpr char kErrorKindInternal[] = "internal";

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters; everything else passes through).
std::string JsonEscape(std::string_view text);

/// One parsed request line: either a query or an admin command.
struct ParsedRequest {
  enum class Kind { kQuery, kAdmin };
  Kind kind = Kind::kQuery;

  Query query;  // kQuery

  /// kAdmin: "apply_delta" | "stats" | "drain" | "ping".
  std::string admin_verb;
  /// apply_delta only: path of the delta snapshot to load and apply.
  std::string admin_path;

  /// The raw "id" token exactly as it appeared (a scalar is echoed back
  /// verbatim, so string ids keep their quotes and stay valid JSON), or
  /// the line number when the id is missing or composite. Always set on
  /// return from ParseRequestLine — error replies need it too.
  std::string id_json;
};

/// Parses one request line (query or admin). Returns false with a
/// diagnostic in *error when the line is malformed; request->id_json is
/// set either way so the caller can address its error reply.
bool ParseRequestLine(const std::string& line, std::size_t line_number,
                      ParsedRequest* request, std::string* error);

/// Query-only convenience used by callers that do not speak admin
/// commands. Identical strictness to ParseRequestLine; a line carrying an
/// "admin" key is rejected. *id_json is always set on return.
bool ParseQueryLine(const std::string& line, std::size_t line_number,
                    Query* query, std::string* id_json, std::string* error);

/// The "communities" array payload of a result line:
/// [{"influence": 42, "members": [1, 2, 3]}, ...], influences as %.17g
/// and ids as %u. The engine formats it once per solve and shares the
/// bytes with every cache hit; tests compare the answer portion of a wire
/// response byte-for-byte against an inline Solve() through it. When
/// `community_ends` is given it receives, per community, the offset just
/// past its closing brace: bytes [0, ends[c - 1]) followed by "]" are
/// exactly the array of the first c communities, so an answer for fewer
/// communities is a cut of the bytes, not a re-format.
std::string FormatCommunitiesJson(
    const SearchResult& result,
    std::vector<std::size_t>* community_ends = nullptr);

/// Appends `communities_json`, a whole FormatCommunitiesJson array or a
/// prefix of one cut at a community end, to *out as a whole array (a cut
/// is closed with "]").
void AppendCommunitiesJson(std::string* out,
                           std::string_view communities_json);

/// One result reply, newline-terminated, around already formatted
/// communities bytes (whole or cut, as AppendCommunitiesJson takes them).
/// `solve_seconds` is the time this request spent solving (0 when it was
/// served from the cache or a coalesced solve).
std::string FormatResultLine(const std::string& id_json, const Query& query,
                             std::string_view communities_json,
                             double solve_seconds, bool cached);

/// Formats `result` and wraps it as above; solve_seconds is the result's
/// own elapsed time unless `cached`, then 0.
std::string FormatResultLine(const std::string& id_json, const Query& query,
                             const SearchResult& result, bool cached);

/// One structured error reply, newline-terminated:
/// {"id": <id_json>, "error": "<message>", "kind": "<kind>"}
std::string FormatErrorLine(const std::string& id_json,
                            const std::string& message,
                            const std::string& kind);

}  // namespace ticl

#endif  // TICL_SERVE_PROTOCOL_H_
