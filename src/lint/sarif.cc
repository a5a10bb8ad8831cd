#include "lint/sarif.hh"

#include <sstream>

#include "stats/textio.hh"

namespace netchar::lint
{

namespace
{

/** GitHub code scanning expects 1-based positions; clamp defensively
 *  (bad-pragma findings anchor at column 1 already). */
int
atLeastOne(int v)
{
    return v < 1 ? 1 : v;
}

void
emitLocation(std::ostringstream &out, const std::string &file,
             int line, int column, const std::string &message)
{
    out << "{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << jsonEscape(file)
        << "\"}, \"region\": {\"startLine\": " << atLeastOne(line)
        << ", \"startColumn\": " << atLeastOne(column) << "}}";
    if (!message.empty())
        out << ", \"message\": {\"text\": \"" << jsonEscape(message)
            << "\"}";
    out << "}";
}

} // namespace

std::string
renderSarif(const LintResult &result)
{
    std::ostringstream out;
    out << "{\n"
           "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
           "  \"version\": \"2.1.0\",\n"
           "  \"runs\": [\n"
           "    {\n"
           "      \"tool\": {\n"
           "        \"driver\": {\n"
           "          \"name\": \"netchar-lint\",\n"
           "          \"informationUri\": "
           "\"https://example.invalid/netchar/docs/ARCHITECTURE.md\""
           ",\n"
           "          \"rules\": [";

    // Every rule is an error.
    bool first = true;
    for (const RuleInfo &rule : ruleTable()) {
        out << (first ? "\n" : ",\n") << "          {\"id\": \""
            << jsonEscape(std::string(rule.name))
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(std::string(rule.summary))
            << "\"}, \"defaultConfiguration\": {\"level\": "
               "\"error\"}}";
        first = false;
    }

    out << "\n          ]\n"
           "        }\n"
           "      },\n"
           "      \"results\": [";

    first = true;
    for (const Finding &f : result.findings) {
        out << (first ? "\n" : ",\n")
            << "        {\"ruleId\": \"" << jsonEscape(f.rule)
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(f.message) << "\"}, \"locations\": [";
        emitLocation(out, f.file, f.line, f.column, "");
        out << "]";
        if (!f.path.empty()) {
            out << ", \"codeFlows\": [{\"threadFlows\": "
                   "[{\"locations\": [";
            bool firstHop = true;
            for (const FlowHop &hop : f.path) {
                out << (firstHop ? "" : ", ") << "{\"location\": ";
                emitLocation(out, hop.file, hop.line, hop.column,
                             hop.note);
                out << "}";
                firstHop = false;
            }
            out << "]}]}]";
        }
        out << "}";
        first = false;
    }

    out << (first ? "]\n" : "\n      ]\n")
        << "    }\n"
           "  ]\n"
           "}\n";
    return out.str();
}

} // namespace netchar::lint
