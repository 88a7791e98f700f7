"""The report bodies of the ``ergolab`` commands, one module per engine,
each named in ``cli.COMMANDS``.  No module here imports ``cli``: under
``python -m ergolab.cli`` it runs as ``__main__``, so an import would run
it a second time."""
