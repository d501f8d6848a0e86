# Project-include hook for the repository's CMakeLists.txt. run.py configures
# the repository with -DCMAKE_PROJECT_sharedres_INCLUDE=<this file>, which
# adds the benchmark's own C++ package (cxx/) to that build, so
# perfbench_tool links the same Release libraries sharedres_cli is built
# from. The library targets are defined later in the same configure run;
# target names are resolved when the build system is generated.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}/cxx" "${CMAKE_BINARY_DIR}/perfbench")
