# Rerun one bench in quick mode and compare the SHA-256 of its figure
# text (stdout under --echo) with the digest recorded for it in
# bench/artifact_digests.txt. Run by the bench.artifact.<name> ctests:
#
#   cmake -DBENCH=<netchar_bench> -DNAME=<bench> -DDIGEST=<sha256> \
#         -P check_artifact.cmake
execute_process(
    COMMAND ${BENCH} --quick --filter ${NAME} --echo --no-progress
            --json /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message("${err}")
    message(FATAL_ERROR "${NAME}: netchar_bench exited ${rc}")
endif()
string(SHA256 got "${out}")
if(NOT got STREQUAL DIGEST)
    # Unformatted, so the table's columns survive.
    message("${out}")
    message(FATAL_ERROR "${NAME}: quick stdout digest ${got}, "
        "recorded ${DIGEST}; the figure text is above")
endif()
