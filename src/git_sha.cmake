# Writes the current git sha into a header, rewriting it only when the sha
# changed, so a new commit recompiles just the file that includes it. The sha
# gets a "-dirty" suffix when tracked files differ from HEAD: a report built
# from uncommitted sources does not measure HEAD.
#
#   cmake -DSOURCE_DIR=<dir in the checkout> -DOUTPUT=<header> -P git_sha.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD --
    WORKING_DIRECTORY ${SOURCE_DIR}
    ERROR_QUIET
    RESULT_VARIABLE dirty)
  if(dirty EQUAL 1)
    set(sha "${sha}-dirty")
  endif()
endif()
set(content "// Generated by src/git_sha.cmake at build time.\n#define MINTRI_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
