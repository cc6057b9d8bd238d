/**
 * @file
 * Table-driven subcommand registry for the `fsp` front end.
 *
 * Each command registers once with its name and one-line summary, the
 * top-level --help is generated from the table, and dispatch is a
 * lookup.  Every handler owns its full argv and parses its own
 * OptionTable (from index 2), so commands with disjoint flag sets --
 * `list` takes none, `merge` adds --shards to the shared set --
 * coexist without a shared table rejecting each other's options.
 */

#ifndef FSP_TOOLS_COMMAND_REGISTRY_HH
#define FSP_TOOLS_COMMAND_REGISTRY_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace fsp::tools {

/** One subcommand: its name, help summary, and entry point. */
struct Command
{
    std::string name;    ///< "campaign"
    std::string summary; ///< one-liner for the generated help
    /** Full-argv handler; parses its own options from argv[2..]. */
    std::function<int(int argc, char **argv)> run;
};

/** The front end's command table. */
class CommandRegistry
{
  public:
    /** @param tool program name for the generated usage ("fsp"). */
    explicit CommandRegistry(std::string tool) : tool_(std::move(tool)) {}

    void add(Command command) { commands_.push_back(std::move(command)); }

    const Command *find(const std::string &name) const;

    const std::vector<Command> &commands() const { return commands_; }

    /** Generated top-level help: usage plus one line per command. */
    void printHelp(std::ostream &out) const;

    /**
     * Dispatch argv[1].  Handles the no-command, --help/-h (help to
     * @p out) and unknown-command cases itself; otherwise runs the
     * handler inside a catch-all that turns an escaped exception into
     * a one-line diagnostic and exit status 1.
     */
    int dispatch(int argc, char **argv, std::ostream &out,
                 std::ostream &err) const;

  private:
    std::string tool_;
    std::vector<Command> commands_;
};

} // namespace fsp::tools

#endif // FSP_TOOLS_COMMAND_REGISTRY_HH
