#include "sim/fsio.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace ssmt
{
namespace sim
{

bool
writeFileAtomic(const std::string &path, const std::string &body)
{
    // The temporary must live in the destination directory: rename(2)
    // is atomic only within one filesystem.
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    const char *data = body.data();
    size_t left = body.size();
    while (left > 0) {
        ssize_t wrote = ::write(fd, data, left);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        data += wrote;
        left -= static_cast<size_t>(wrote);
    }
    // Durability before visibility: the data must be on disk before
    // the rename can make it the canonical content. Close exactly
    // once: Linux releases the descriptor even when close fails, so a
    // second close could hit a descriptor another thread just opened.
    bool synced = ::fsync(fd) == 0;
    bool closed = ::close(fd) == 0;
    if (!synced || !closed) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "r");
    if (!file)
        return "";
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    std::fclose(file);
    return text;
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
ensureDir(const std::string &path)
{
    if (path.empty())
        return false;
    std::string partial;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            slash = path.size();
        partial = path.substr(0, slash);
        pos = slash + 1;
        if (partial.empty() || partial == ".")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        std::string name = ent->d_name;
        if (name == "." || name == "..")
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) == 0 &&
            S_ISREG(st.st_mode))
            out.push_back(name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

bool
removeFile(const std::string &path)
{
    return ::unlink(path.c_str()) == 0 || errno == ENOENT;
}

std::string
makeTempDir(const std::string &prefix)
{
    std::error_code ec;
    std::filesystem::path base =
        std::filesystem::temp_directory_path(ec);
    if (ec)
        return "";
    std::string dir = (base / (prefix + "-XXXXXX")).string();
    return ::mkdtemp(dir.data()) ? dir : "";
}

} // namespace sim
} // namespace ssmt
