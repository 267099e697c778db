"""Command-line tools (the reproduction's ``scalehls-opt`` / ``scalehls-translate``)."""
