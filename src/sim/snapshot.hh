/**
 * @file
 * The one JSON writer and the canonical reader every ssmt document
 * goes through (the job-result codec, campaign specs, journals,
 * manifests, golden snapshots, ssmt-series-v1 artifacts, Chrome
 * traces and JSONL trace lines), plus the program content hash that
 * store keys name.
 *
 * The encoding is canonical: integers only (nothing round-trips
 * through a double), fixed field order chosen by the writer's
 * caller, every string through sim::appendJsonEscaped, and a layout
 * fixed in code per document. Two documents of equal content are
 * byte-identical regardless of host or --jobs, so "isolated ==
 * in-process" and "rerun manifest == first manifest" are string
 * comparisons. Decoding walks sim/json_text's parse tree.
 */

#ifndef SSMT_SIM_SNAPSHOT_HH
#define SSMT_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json_text.hh"

namespace ssmt
{

namespace isa
{
class Program;
}

namespace sim
{

/**
 * Incremental canonical-JSON emitter. Structure calls must balance;
 * keyed calls require an open object, unkeyed calls an open array.
 *
 * Two layouts: Compact writes no whitespace (job documents, specs,
 * journals, manifests); Spaced separates with ", " and ": " (golden
 * snapshots, series, Chrome traces, JSONL lines). A scope opened
 * with kLines puts each item on its own line, indented two spaces
 * per level, and a document whose root is laid out in lines ends
 * with a newline. Keys are code literals and are not escaped.
 */
class SnapshotWriter
{
  public:
    enum class Layout : uint8_t
    {
        Compact,
        Spaced
    };
    /** Pass as a scope's @p lines: one item per line. */
    static constexpr bool kLines = true;

    explicit SnapshotWriter(Layout layout = Layout::Compact);

    void beginObject(bool lines = false);
    void beginObject(const char *key, bool lines = false);
    void endObject();
    void beginArray(const char *key, bool lines = false);
    void endArray();

    void u64(uint64_t value);
    void u64(const char *key, uint64_t value);
    void boolean(const char *key, bool value);
    void str(std::string_view value);
    void str(const char *key, std::string_view value);
    void u64Array(const char *key, const std::vector<uint64_t> &v);

    /** Start a new document in the same buffer (and its capacity). */
    void clear();

    /** The finished document; all scopes must be closed. */
    const std::string &text() const;

  private:
    /** Deeper than any document written (manifests nest 5). */
    static constexpr int kMaxDepth = 8;

    struct Scope
    {
        char close;     ///< '}' or ']'
        bool lines;
        bool first;
    };

    std::string out_;
    Scope scopes_[kMaxDepth] = {};
    int depth_ = 0;
    bool spaced_;

    void separator();
    void emitKey(const char *key);
    void open(char bracket, bool lines);
    void close(char bracket);
};

/**
 * Cursor over a parsed document. Construction parses (and throws
 * SimError(ParseError) on malformed text); enter()/leave() navigate
 * nested objects and arrays; typed getters throw
 * SimError(ParseError) on a missing key or a kind mismatch, so a
 * truncated or hand-edited document fails loudly instead of decoding
 * garbage.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &text);

    /** Descend into the object member @p key. */
    void enter(const char *key);
    /** Descend into the array member @p key. @return item count. */
    size_t enterArray(const char *key);
    /** Descend into item @p i of the current array. */
    void enterItem(size_t i);
    /** Ascend one level. */
    void leave();

    bool has(const char *key) const;
    uint64_t u64(const char *key) const;
    bool boolean(const char *key) const;
    std::string str(const char *key) const;
    std::vector<std::string> strArray(const char *key) const;
    std::vector<uint64_t> u64Array(const char *key) const;

  private:
    JsonValue root_;
    std::vector<const JsonValue *> stack_;

    /** Throw SimError(ParseError) saying @p what. */
    [[noreturn]] void fail(const std::string &what) const;
    const JsonValue &cur() const;
    const JsonValue &member(const char *key) const;
};

/** FNV-1a content hash over a program's code and data image. Store
 *  keys name it, so its bytes must not change. */
uint64_t programHash(const isa::Program &prog);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_SNAPSHOT_HH
