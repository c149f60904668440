/**
 * @file
 * Crash-safe filesystem primitives shared by every artifact writer.
 *
 * The durability contract the campaign layer (sim/campaign.hh) is
 * built on: a file either has its complete old content or its
 * complete new content — never a truncated hybrid. writeFileAtomic
 * writes to a temporary sibling in the *same directory* (rename(2) is
 * only atomic within a filesystem), fsyncs it, then renames over the
 * destination, so a `kill -9` at any instant cannot leave a partial
 * golden/, results/ or snapshot JSON behind.
 */

#ifndef SSMT_SIM_FSIO_HH
#define SSMT_SIM_FSIO_HH

#include <string>
#include <vector>

namespace ssmt
{
namespace sim
{

/**
 * Atomically replace @p path with @p body: write `path + ".tmp.<pid>"`,
 * fsync, rename. @return true when the rename committed; on failure
 * the destination is untouched and the temporary is unlinked.
 */
bool writeFileAtomic(const std::string &path, const std::string &body);

/** Whole file as a string; "" when unreadable (stat first when the
 *  distinction matters). */
std::string readFileOrEmpty(const std::string &path);

/** True when @p path exists (any file type). */
bool pathExists(const std::string &path);

/** mkdir -p: create @p path and any missing parents. @return true
 *  when the directory exists afterwards. */
bool ensureDir(const std::string &path);

/** Regular-file names directly inside @p dir (no subdirectories, no
 *  "."/".."), sorted; empty on an unreadable directory. */
std::vector<std::string> listDir(const std::string &dir);

/** Delete a file. @return true when it no longer exists. */
bool removeFile(const std::string &path);

/** Create a new, empty, uniquely named directory
 *  `<system temp dir>/<prefix>-XXXXXX` (mkdtemp). @return its path,
 *  or "" when it cannot be created. */
std::string makeTempDir(const std::string &prefix);

} // namespace sim
} // namespace ssmt

#endif // SSMT_SIM_FSIO_HH
