"""Reference implementations that the production paths are tested
against (and benchmarked against): retired engines kept out of
``src/`` but alive as oracles, one module per job.

* ``analysis`` — the dict-row analysis reductions;
* ``dispatch`` — the plain ``multiprocessing.Pool`` sweep dispatch;
* ``features`` — cross-row similarity summed with ``np.add.at``;
* ``generator`` — the per-element sequential Listing-1 generator and
  the full-length row-length profile;
* ``model`` — the scalar SpMV model and its scalar measurement noise;
* ``routing`` — per-tree and per-format forest routing;
* ``selector`` — per-instance selector evaluation;
* ``stats`` — format stats through a full conversion;
* ``sweep`` — the instance cold path and the scalar sweep loop;
* ``tree`` — the per-node re-sorting tree grower.

Nothing under ``src/`` imports them.
"""
