"""Optional compiled kernel package.

The only module allowed to import :mod:`repro._ckernel._impl` is the
chooser, :mod:`repro.kernel` (enforced by lint rule KER006).  Its
consumers — ``workload/transactions.py`` and ``workload/ycsb.py`` — go
through the chooser so the pure-Python implementations remain authoritative
and the extension stays strictly optional.
"""
