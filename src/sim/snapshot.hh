/**
 * @file
 * The canonical JSON writer and reader every ssmt document goes
 * through (the job-result codec, campaign specs, journals and
 * manifests), plus the program content hash that store keys name.
 *
 * The encoding is canonical: integers only (nothing round-trips
 * through a double), fixed field order chosen by the writer's
 * caller, and no whitespace. Two documents of equal content are
 * byte-identical regardless of host or --jobs, so "isolated ==
 * in-process" and "rerun manifest == first manifest" are string
 * comparisons. Decoding walks sim/json_text's parse tree.
 */

#ifndef SSMT_SIM_SNAPSHOT_HH
#define SSMT_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
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
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    void beginObject();
    void beginObject(const char *key);
    void endObject();
    void beginArray(const char *key);
    void endArray();

    void u64(uint64_t value);
    void u64(const char *key, uint64_t value);
    void boolean(const char *key, bool value);
    void str(const std::string &value);
    void str(const char *key, const std::string &value);
    void u64Array(const char *key, const std::vector<uint64_t> &v);

    /** The finished document; all scopes must be closed. */
    const std::string &text() const;

  private:
    std::string out_;
    std::vector<char> scopes_;  ///< '{' or '['
    std::vector<bool> first_;

    void separator();
    void emitKey(const char *key);
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
