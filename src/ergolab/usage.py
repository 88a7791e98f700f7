"""The usage line and help text of the command line, which only ``--help``
and a malformed command line load.  The caller passes ``cli.COMMANDS``:
importing ``ergolab.cli`` here would, under ``python -m ergolab.cli``, run
the command line a second time."""

import sys

_HELP = "Show this message and exit."


def usage(commands, name) -> str:
    if name is None:
        return "usage: ergolab [--help] [--version] COMMAND ..."
    flags = commands[name][1]
    words = [f"[{flag} {flags[flag][2]}]" for flag in flags]
    words[0] = words[0][1:-1]  # --scenario is required
    return f"usage: ergolab {name} [--help] " + " ".join(words)


def exit_usage(commands, name, message: str):
    prog = "ergolab" if name is None else f"ergolab {name}"
    sys.stderr.write(f"{usage(commands, name)}\n{prog}: error: {message}\n")
    sys.exit(2)


def exit_help(commands, name, description: str):
    """Print the help of the program (name None), under its description,
    or of one command."""
    if name is None:
        doc = description
        sections = [
            ("commands", [(cmd, commands[cmd][2]) for cmd in commands]),
            ("options", [("--help", _HELP),
                         ("--version", "Show the version and exit.")]),
        ]
    else:
        _, flags, doc = commands[name]
        sections = [("options", [("--help", _HELP)] + [
            (f"{flag} {metavar}", text)
            for flag, (_, _, metavar, text) in flags.items()
        ])]
    width = max(len(term) for _, rows in sections for term, _ in rows) + 2
    text = f"{usage(commands, name)}\n\n{doc}\n"
    for title, rows in sections:
        text += f"\n{title}:\n"
        text += "".join(f"  {term:<{width}}{about}".rstrip() + "\n"
                        for term, about in rows)
    sys.stdout.write(text)
    sys.exit(0)
