"""Reference implementations that the production paths are tested
against (and benchmarked against): retired engines kept out of
``src/`` but alive as oracles."""
