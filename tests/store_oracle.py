"""The dict-based store rebuild, kept as the reference for ``logio.store_from_passrates``.

It walks the log once in order, filing each record's pass rate under its qid
and epoch, so a conflicting split or a duplicate epoch is reported at the
first record that shows it.  Then it checks that every question covers the
same range of epochs, and then, smallest qid first, that none is missing.
The store is filled one epoch per ``record`` call.  ``store_from_passrates``
must give the same matrix, split map and length, or the same error, for every
log whose ids and epochs lie in its bounds.
"""

from trajrl.logio import LogParseError
from trajrl.trajectory import TrajectoryStore


def store_from_passrates(log):
    by_qid: dict[int, dict[int, float]] = {}
    split_of: dict[int, str] = {}
    for qid, split, epoch, rate in zip(log.qid, log.split, log.epoch, log.pass_rate):
        if split_of.setdefault(qid, split) != split:
            raise LogParseError(f"qid {qid} appears with conflicting splits")
        epochs = by_qid.setdefault(qid, {})
        if epoch in epochs:
            raise LogParseError(f"qid {qid} has duplicate records for epoch {epoch}")
        epochs[epoch] = rate
    if not by_qid:
        raise LogParseError("no pass-rate records found")
    lengths = {max(epochs) for epochs in by_qid.values()}
    if len(lengths) != 1:
        raise LogParseError(f"questions cover different epoch ranges: {sorted(lengths)}")
    n_epochs = lengths.pop()
    qids = sorted(by_qid)
    for qid in qids:
        for epoch in range(1, n_epochs + 1):
            if epoch not in by_qid[qid]:
                raise LogParseError(f"qid {qid} is missing epoch {epoch}")
    store = TrajectoryStore(qids)
    for epoch in range(1, n_epochs + 1):
        store.record([by_qid[qid][epoch] for qid in qids])
    return store, split_of, n_epochs
