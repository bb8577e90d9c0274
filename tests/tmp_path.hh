/**
 * @file
 * Per-process scratch paths for the test suites.
 *
 * ctest runs every gtest case as its own process, often several at
 * once, so two cases must never share a scratch file: one would
 * delete or rewrite it under the other. Every path therefore lives in
 * a directory named after the process id. The directory is removed
 * when the process exits with every test passed, and kept for
 * post-mortem otherwise. Names stay short so unix socket paths built
 * from them fit the 108-byte sun_path limit.
 */

#ifndef MARVEL_TESTS_TMP_PATH_HH
#define MARVEL_TESTS_TMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

namespace marvel::testutil
{

/** TempDir()/<pid>/`name`, with any stale file removed. */
inline std::string
tmpPath(const std::string &name)
{
    static const struct ProcessDir
    {
        std::string path =
            testing::TempDir() + std::to_string(::getpid());
        ProcessDir() { std::filesystem::create_directories(path); }
        ~ProcessDir()
        {
            if (!testing::UnitTest::GetInstance()->Passed())
                return;
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    } dir;
    const std::string path = dir.path + "/" + name;
    std::remove(path.c_str());
    return path;
}

} // namespace marvel::testutil

#endif // MARVEL_TESTS_TMP_PATH_HH
