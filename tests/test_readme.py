"""The README's library quick tour and config example run as written, and its
command block matches the parser."""

import argparse
import json
import pathlib
import re

from gcm import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def test_readme_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_tour"})


def _subparser_options() -> dict:
    """Each gcm subcommand's option strings, without --help."""
    return {
        name: {s for a in cli._command_parser(name)._actions
               if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
        for name in cli._COMMANDS
    }


def _command_lines() -> dict:
    """The README's command block as {subcommand: the text of its usage line}."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return {line.split()[1]: line for line in lines if line.startswith("gcm ")}


def test_readme_command_block_matches_the_parser():
    options = _subparser_options()
    lines = _command_lines()
    assert set(lines) == set(options)
    # every flag shown for a command is one of that command's options
    for name, line in lines.items():
        assert set(FLAG.findall(line)) <= options[name], name
    # every option of every command is shown in the block
    documented = set(FLAG.findall(" ".join(lines.values())))
    for name, opts in options.items():
        assert opts <= documented, (name, opts - documented)


def test_readme_config_example_runs(tmp_path):
    # the example is a complete consistency config; run it at two replicates
    text = README.read_text(encoding="utf-8")
    section = text.split("### Experiment config format", 1)[1].split("\n### ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(block), "replications": 2}))
    argv = ["mc-consistency", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
