# Build file of the benchmark program. run.py injects it into the
# repository's own configure step through CMAKE_PROJECT_INCLUDE, so the
# benchmark links the libraries exactly as the repository builds them,
# flags included, without editing any repository file. The target is
# defined at the end of the top-level directory, once src/ has defined
# robox_core.

function(robobench_add_target)
    set(dir "${ROBOBENCH_DIR}")
    add_executable(robobench
        ${dir}/src/main.cc
        ${dir}/src/common.cc
        ${dir}/src/episodes.cc
        ${dir}/src/control.cc
        ${dir}/src/fleet.cc
        ${dir}/src/toolchain.cc
    )
    # The repository root, for bench/bench_util.hh (Fig. 11 CU configs).
    target_include_directories(robobench PRIVATE
        ${dir}/src ${CMAKE_SOURCE_DIR})
    target_link_libraries(robobench PRIVATE robox_core)
    target_compile_definitions(robobench PRIVATE
        ROBOBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
    set_target_properties(robobench PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/robobench-bin")
endfunction()

if(NOT ROBOBENCH_DIR)
    set(ROBOBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
    cmake_language(DEFER CALL robobench_add_target)
endif()
