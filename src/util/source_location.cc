#include "util/source_location.hh"

#include <functional>
#include <mutex>
#include <unordered_set>

namespace pmtest
{

namespace
{

/** Hashes std::string and std::string_view alike (lookup without a copy). */
struct NameHash
{
    using is_transparent = void;

    size_t
    operator()(std::string_view name) const noexcept
    {
        return std::hash<std::string_view>{}(name);
    }
};

} // namespace

const char *
internFileName(std::string_view name)
{
    // Leaked on purpose: a node-based set never moves an element, and
    // never destroying it keeps interned names valid even for a
    // finding printed from a static destructor at exit.
    static auto *mutex = new std::mutex;
    static auto *names =
        new std::unordered_set<std::string, NameHash, std::equal_to<>>;
    std::lock_guard<std::mutex> lock(*mutex);
    auto it = names->find(name);
    if (it == names->end())
        it = names->emplace(name).first;
    return it->c_str();
}

} // namespace pmtest
