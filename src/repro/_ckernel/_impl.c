/* repro._ckernel._impl — hand-written CPython fast path for the
 * handler-bound floors of the simulator the benchmark shows paying (see
 * PERFORMANCE.md):
 *
 *   1. execute_batch      — a batch's result digest over the Operation
 *                           namedtuple layout and a read's plain
 *                           key -> value / key -> version dicts, with
 *                           single-pass canonical-chunk accumulation, hashed
 *                           once through hashlib.sha256, byte-identical to
 *                           the Python loop (no per-transaction objects);
 *   2. generate_transactions — uniform YCSB transaction generation (no
 *                           conflicts, no zipfian keys: the one shape a
 *                           benchmark workload draws), drawing through the
 *                           *same* random.Random.getrandbits rejection loop
 *                           as sim/rng.bounded_int_fn so the draw sequence is
 *                           bit-identical, with C-side key/value formatting
 *                           and transaction assembly, seeding each
 *                           transaction's canonical and sorted-keys memos as
 *                           the pure-Python loop does.  A workload that is
 *                           not uniform-only is refused with ValueError.
 *
 * Canonical strings, canonical bytes and digests (the paper's H(.)) are
 * deliberately not here: workload/transactions.py and crypto/hashing.py are
 * their one implementation under every REPRO_KERNEL value (a C leg for them
 * bought nothing end to end; see PERFORMANCE.md).
 *
 * The module is OPTIONAL: nothing imports it directly except
 * repro/kernel.py (the chooser — lint rule KER006 enforces this), and every
 * accelerated call-site keeps the authoritative pure-Python implementation
 * as its fallback.  Bit-identity C-vs-Python is gated by
 * tests/test_kernel.py and CI's kernel-smoke job.
 *
 * BUILD_TAG below must match repro.kernel.KERNEL_BUILD_TAG; bump both when
 * the calling convention changes so a stale .so is rejected, not crashed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define CKERNEL_BUILD_TAG "repro-ckernel-5"

/* ------------------------------------------------------------------ state */

/* Configured by the chooser's consumers at import time (single-interpreter
 * process-global state). */
static PyObject *g_operation_type = NULL;    /* workload.transactions.Operation */
static PyObject *g_transaction_type = NULL;  /* workload.transactions.Transaction */

static PyObject *g_sha256 = NULL;            /* hashlib.sha256, bound at init */
static PyObject *g_empty_tuple = NULL;

/* Interned attribute names. */
static PyObject *s_txn_id, *s_client_id, *s_operations, *s_execution_seconds,
    *s_rw_sets_known, *s_origin, *s_request_id, *s_sorted_keys_memo,
    *s_canonical_memo, *s_hexdigest;
static PyObject *s_uniform_only, *s_client_ids, *s_client_starts,
    *s_write_flags, *s_hot_count, *s_private_modulus, *s_partition_size,
    *s_num_records, *s_wl_execution_seconds, *s_wl_rw_sets_known,
    *s_next_txn_index, *s_rng, *s_getrandbits, *s_value_bound, *s_client_bound;

/* -------------------------------------------------------------- utilities */

/* Python's `%` for a non-negative modulus (operands here are always
 * non-negative in practice; the adjustment is insurance, not behaviour). */
static long
py_mod(long value, long modulus)
{
    long r = value % modulus;
    if (r < 0) {
        r += modulus;
    }
    return r;
}

static int
bit_length(long width)
{
    int bits = 0;
    unsigned long v = (unsigned long)width;
    while (v > 0) {
        bits++;
        v >>= 1;
    }
    return bits;
}

/* The exact rejection loop of random.Random._randbelow_with_getrandbits /
 * sim/rng.bounded_int_fn: draw `bits` bits until the value is < width.
 * Returns -1 with an exception set on error (valid draws are >= 0). */
static long
draw_bounded(PyObject *getrandbits, PyObject *bits_obj, long width)
{
    for (;;) {
        PyObject *value_obj = PyObject_CallOneArg(getrandbits, bits_obj);
        long value;

        if (value_obj == NULL) {
            return -1;
        }
        value = PyLong_AsLong(value_obj);
        Py_DECREF(value_obj);
        if (value == -1 && PyErr_Occurred()) {
            return -1;
        }
        if (value < width) {
            return value;
        }
    }
}

/* ------------------------------------------------------- growable buffer */

typedef struct {
    char *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} buf_t;

static int
buf_init(buf_t *buf, Py_ssize_t cap)
{
    buf->data = (char *)PyMem_Malloc((size_t)cap);
    if (buf->data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    buf->len = 0;
    buf->cap = cap;
    return 0;
}

static void
buf_free(buf_t *buf)
{
    PyMem_Free(buf->data);
    buf->data = NULL;
}

static int
buf_reserve(buf_t *buf, Py_ssize_t extra)
{
    Py_ssize_t needed = buf->len + extra;
    Py_ssize_t cap;
    char *grown;

    if (needed <= buf->cap) {
        return 0;
    }
    cap = buf->cap;
    while (cap < needed) {
        cap += cap >> 1; /* x1.5 growth */
    }
    grown = (char *)PyMem_Realloc(buf->data, (size_t)cap);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    buf->data = grown;
    buf->cap = cap;
    return 0;
}

static int
buf_append(buf_t *buf, const char *bytes, Py_ssize_t len)
{
    if (buf_reserve(buf, len) < 0) {
        return -1;
    }
    memcpy(buf->data + buf->len, bytes, (size_t)len);
    buf->len += len;
    return 0;
}

static int
buf_append_char(buf_t *buf, char ch)
{
    if (buf_reserve(buf, 1) < 0) {
        return -1;
    }
    buf->data[buf->len++] = ch;
    return 0;
}

/* Append str(obj) as UTF-8 — what an f-string interpolation contributes.
 * (UTF-8 encoding distributes over concatenation, so appending pieces is
 * byte-identical to building the full str first and encoding once.) */
static int
buf_append_str_obj(buf_t *buf, PyObject *obj)
{
    PyObject *text = obj;
    const char *utf8;
    Py_ssize_t size;
    int result;

    if (PyUnicode_CheckExact(obj)) {
        Py_INCREF(text);
    }
    else {
        text = PyObject_Str(obj);
        if (text == NULL) {
            return -1;
        }
    }
    utf8 = PyUnicode_AsUTF8AndSize(text, &size);
    if (utf8 == NULL) {
        Py_DECREF(text);
        return -1;
    }
    result = buf_append(buf, utf8, size);
    Py_DECREF(text);
    return result;
}

static int
buf_append_long(buf_t *buf, long value)
{
    char digits[32];
    int written = snprintf(digits, sizeof(digits), "%ld", value);
    return buf_append(buf, digits, (Py_ssize_t)written);
}

/* Hex SHA-256 of the buffer as a new str, through hashlib.sha256 (CPython's
 * SHA-256 ships vendor-optimised assembly; the module imports it at init). */
static PyObject *
buf_sha256_hex(const buf_t *buf)
{
    PyObject *payload = PyBytes_FromStringAndSize(buf->data, buf->len);
    PyObject *hasher, *hex;

    if (payload == NULL) {
        return NULL;
    }
    hasher = PyObject_CallOneArg(g_sha256, payload);
    Py_DECREF(payload);
    if (hasher == NULL) {
        return NULL;
    }
    hex = PyObject_CallMethodNoArgs(hasher, s_hexdigest);
    Py_DECREF(hasher);
    return hex;
}

/* tuple(sorted(set(keys))) — Transaction.sorted_keys — without a Python
 * frame: sort ``keys`` (a list the caller owns) in place, then drop
 * adjacent duplicates; hash-based and comparison-based dedup agree for the
 * str keys used here. */
static PyObject *
sorted_distinct_keys(PyObject *keys)
{
    Py_ssize_t n, k, kept = 0;

    if (PyList_Sort(keys) < 0) {
        return NULL;
    }
    n = PyList_GET_SIZE(keys);
    for (k = 0; k < n; k++) {
        PyObject *item = PyList_GET_ITEM(keys, k);
        int duplicate = 0;

        if (kept > 0) {
            duplicate = PyObject_RichCompareBool(
                PyList_GET_ITEM(keys, kept - 1), item, Py_EQ);
            if (duplicate < 0) {
                return NULL;
            }
        }
        if (!duplicate) {
            if (k != kept) {
                Py_INCREF(item);
                PyList_SetItem(keys, kept, item);
            }
            kept++;
        }
    }
    if (PyList_SetSlice(keys, kept, n, NULL) < 0) {
        return NULL;
    }
    return PyList_AsTuple(keys);
}

/* ------------------------------------------------ floor 1: execute_batch */

/* Byte-identical mirror of transactions._execute_batch_py's chunk
 * discipline, returning the digest only (the result's writes are the
 * batch's memo and its versions the map passed in):
 *   chunks = [batch_id]
 *   per operation: f"{key}={read_values.get(key, '')}"
 *                  plus, for writes, f"{value}:{txn_id}"
 *   per sorted key: f"{key}@{read_versions.get(key, 0)}"
 *   digest = sha256("".join(chunks).encode("utf-8"))
 */
static PyObject *
ck_execute_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *batch_id, *transactions, *read_values, *read_versions;
    PyObject *txn_fast = NULL, *digest_hex = NULL;
    Py_ssize_t txn_count, i;
    buf_t buf;

    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "execute_batch expects (batch_id, transactions, "
                        "read_values, read_versions)");
        return NULL;
    }
    batch_id = args[0];
    transactions = args[1];
    read_values = args[2];
    read_versions = args[3];
    if (!PyDict_Check(read_values) || !PyDict_Check(read_versions)) {
        PyErr_SetString(PyExc_TypeError,
                        "execute_batch expects dict read_values/read_versions");
        return NULL;
    }

    if (buf_init(&buf, 8192) < 0) {
        return NULL;
    }
    if (buf_append_str_obj(&buf, batch_id) < 0) {
        goto error;
    }

    txn_fast = PySequence_Fast(transactions, "transactions must be a sequence");
    if (txn_fast == NULL) {
        goto error;
    }
    txn_count = PySequence_Fast_GET_SIZE(txn_fast);

    for (i = 0; i < txn_count; i++) {
        PyObject *txn = PySequence_Fast_GET_ITEM(txn_fast, i);
        PyObject *txn_id = NULL, *operations = NULL, *ops_fast = NULL;
        PyObject *sorted_keys = NULL, *keys_fast = NULL, *key_accum = NULL;
        Py_ssize_t op_count, key_count, j;

        txn_id = PyObject_GetAttr(txn, s_txn_id);
        if (txn_id == NULL) {
            goto error;
        }
        operations = PyObject_GetAttr(txn, s_operations);
        if (operations == NULL) {
            goto txn_error;
        }
        ops_fast = PySequence_Fast(operations, "operations must be a sequence");
        if (ops_fast == NULL) {
            goto txn_error;
        }
        /* The sorted_keys property memoises its value as ``_sorted_keys``
         * in the instance dict, but a property is a data descriptor, so
         * going through it costs a Python frame per access.  Read the memo
         * straight out of the instance dict; on a miss (first execution of
         * the transaction) the op walk below collects the keys and the
         * sorted tuple is built and memoised right here in C. */
        {
            PyObject *txn_dict = PyObject_GenericGetDict(txn, NULL);

            if (txn_dict == NULL) {
                PyErr_Clear();
            }
            else {
                sorted_keys = PyDict_GetItemWithError(txn_dict, s_sorted_keys_memo);
                Py_XINCREF(sorted_keys);
                Py_DECREF(txn_dict);
                if (sorted_keys == NULL && PyErr_Occurred()) {
                    goto txn_error;
                }
            }
        }
        if (sorted_keys == NULL) {
            key_accum = PyList_New(0);
            if (key_accum == NULL) {
                goto txn_error;
            }
        }
        op_count = PySequence_Fast_GET_SIZE(ops_fast);
        for (j = 0; j < op_count; j++) {
            PyObject *op = PySequence_Fast_GET_ITEM(ops_fast, j);
            PyObject *key, *is_write, *value, *read_value;
            int truth;

            if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) < 3) {
                PyErr_SetString(PyExc_TypeError,
                                "operation must be a (key, is_write, value) tuple");
                goto txn_error;
            }
            key = PyTuple_GET_ITEM(op, 0);
            is_write = PyTuple_GET_ITEM(op, 1);
            value = PyTuple_GET_ITEM(op, 2);

            if (key_accum != NULL && PyList_Append(key_accum, key) < 0) {
                goto txn_error;
            }
            read_value = PyDict_GetItemWithError(read_values, key); /* borrowed */
            if (read_value == NULL && PyErr_Occurred()) {
                goto txn_error;
            }
            if (buf_append_str_obj(&buf, key) < 0 ||
                buf_append_char(&buf, '=') < 0) {
                goto txn_error;
            }
            if (read_value != NULL && buf_append_str_obj(&buf, read_value) < 0) {
                goto txn_error;
            }
            truth = PyObject_IsTrue(is_write);
            if (truth < 0) {
                goto txn_error;
            }
            /* f"{value}:{txn_id}" */
            if (truth && (buf_append_str_obj(&buf, value) < 0 ||
                          buf_append_char(&buf, ':') < 0 ||
                          buf_append_str_obj(&buf, txn_id) < 0)) {
                goto txn_error;
            }
        }

        if (sorted_keys == NULL) {
            sorted_keys = sorted_distinct_keys(key_accum);
            if (sorted_keys == NULL) {
                goto txn_error;
            }
            if (PyObject_GenericSetAttr(txn, s_sorted_keys_memo, sorted_keys) < 0) {
                PyErr_Clear(); /* memo-less instances just recompute */
            }
        }
        keys_fast = PySequence_Fast(sorted_keys, "sorted_keys must be a sequence");
        if (keys_fast == NULL) {
            goto txn_error;
        }
        key_count = PySequence_Fast_GET_SIZE(keys_fast);
        for (j = 0; j < key_count; j++) {
            PyObject *key = PySequence_Fast_GET_ITEM(keys_fast, j);
            PyObject *version = PyDict_GetItemWithError(read_versions, key);

            if (version == NULL && PyErr_Occurred()) {
                goto txn_error;
            }
            if (buf_append_str_obj(&buf, key) < 0 ||
                buf_append_char(&buf, '@') < 0) {
                goto txn_error;
            }
            if (version == NULL) {
                if (buf_append_char(&buf, '0') < 0) {
                    goto txn_error;
                }
            }
            else if (PyLong_CheckExact(version)) {
                long v = PyLong_AsLong(version);
                if (v == -1 && PyErr_Occurred()) {
                    PyErr_Clear();
                    if (buf_append_str_obj(&buf, version) < 0) {
                        goto txn_error;
                    }
                }
                else if (buf_append_long(&buf, v) < 0) {
                    goto txn_error;
                }
            }
            else if (buf_append_str_obj(&buf, version) < 0) {
                goto txn_error;
            }
        }

        Py_DECREF(keys_fast);
        Py_XDECREF(key_accum);
        Py_DECREF(sorted_keys);
        Py_DECREF(ops_fast);
        Py_DECREF(operations);
        Py_DECREF(txn_id);
        continue;

    txn_error:
        Py_XDECREF(keys_fast);
        Py_XDECREF(key_accum);
        Py_XDECREF(sorted_keys);
        Py_XDECREF(ops_fast);
        Py_XDECREF(operations);
        Py_XDECREF(txn_id);
        goto error;
    }

    digest_hex = buf_sha256_hex(&buf);

error:
    Py_XDECREF(txn_fast);
    buf_free(&buf);
    return digest_hex;
}

/* ------------------------------------------- floor 2: YCSB generation */

/* tuple.__new__(Operation, (key, is_write, value)) without the wrapper:
 * tp_alloc on the (slot-less) tuple subclass, items set directly. */
static PyObject *
make_operation(PyObject *key, PyObject *is_write, PyObject *value)
{
    PyTypeObject *type = (PyTypeObject *)g_operation_type;
    PyObject *op = type->tp_alloc(type, 3);

    if (op == NULL) {
        return NULL;
    }
    Py_INCREF(key);
    PyTuple_SET_ITEM(op, 0, key);
    Py_INCREF(is_write);
    PyTuple_SET_ITEM(op, 1, is_write);
    Py_INCREF(value);
    PyTuple_SET_ITEM(op, 2, value);
    return op;
}

static long
attr_as_long(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    long result;

    if (value == NULL) {
        return -1;
    }
    result = PyLong_AsLong(value);
    Py_DECREF(value);
    return result;
}

static int
attr_is_true(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    int result;

    if (value == NULL) {
        return -1;
    }
    result = PyObject_IsTrue(value);
    Py_DECREF(value);
    return result;
}

/* Transaction.canonical():
 * f"txn:{txn_id}:{client_id}:{ops}:{execution_seconds}" with
 * ops = ";".join(f"{'W' if is_write else 'R'}:{key}:{value or ''}" ...) */
static PyObject *
transaction_canonical_str(PyObject *txn)
{
    PyObject *txn_id = NULL, *client_id = NULL, *operations = NULL,
        *execution_seconds = NULL, *ops_fast = NULL, *result = NULL;
    Py_ssize_t op_count, j;
    buf_t buf;

    if (buf_init(&buf, 512) < 0) {
        return NULL;
    }
    txn_id = PyObject_GetAttr(txn, s_txn_id);
    client_id = txn_id ? PyObject_GetAttr(txn, s_client_id) : NULL;
    operations = client_id ? PyObject_GetAttr(txn, s_operations) : NULL;
    execution_seconds =
        operations ? PyObject_GetAttr(txn, s_execution_seconds) : NULL;
    if (execution_seconds == NULL) {
        goto done;
    }
    if (buf_append(&buf, "txn:", 4) < 0 ||
        buf_append_str_obj(&buf, txn_id) < 0 ||
        buf_append_char(&buf, ':') < 0 ||
        buf_append_str_obj(&buf, client_id) < 0 ||
        buf_append_char(&buf, ':') < 0) {
        goto done;
    }
    ops_fast = PySequence_Fast(operations, "operations must be a sequence");
    if (ops_fast == NULL) {
        goto done;
    }
    op_count = PySequence_Fast_GET_SIZE(ops_fast);
    for (j = 0; j < op_count; j++) {
        PyObject *op = PySequence_Fast_GET_ITEM(ops_fast, j);
        PyObject *key, *is_write, *value;
        int write_truth, value_truth;

        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) < 3) {
            PyErr_SetString(PyExc_TypeError,
                            "operation must be a (key, is_write, value) tuple");
            goto done;
        }
        key = PyTuple_GET_ITEM(op, 0);
        is_write = PyTuple_GET_ITEM(op, 1);
        value = PyTuple_GET_ITEM(op, 2);
        write_truth = PyObject_IsTrue(is_write);
        if (write_truth < 0) {
            goto done;
        }
        if (j > 0 && buf_append_char(&buf, ';') < 0) {
            goto done;
        }
        if (buf_append_char(&buf, write_truth ? 'W' : 'R') < 0 ||
            buf_append_char(&buf, ':') < 0 ||
            buf_append_str_obj(&buf, key) < 0 ||
            buf_append_char(&buf, ':') < 0) {
            goto done;
        }
        /* f"{value or ''}": falsy values (None, "") contribute nothing. */
        value_truth = PyObject_IsTrue(value);
        if (value_truth < 0) {
            goto done;
        }
        if (value_truth && buf_append_str_obj(&buf, value) < 0) {
            goto done;
        }
    }
    if (buf_append_char(&buf, ':') < 0 ||
        buf_append_str_obj(&buf, execution_seconds) < 0) {
        goto done;
    }
    result = PyUnicode_DecodeUTF8(buf.data, buf.len, NULL);

done:
    Py_XDECREF(ops_fast);
    Py_XDECREF(execution_seconds);
    Py_XDECREF(operations);
    Py_XDECREF(client_id);
    Py_XDECREF(txn_id);
    buf_free(&buf);
    return result;
}

/* Seed a freshly drawn transaction's ``_canonical`` and ``_sorted_keys``
 * memos with exactly what Transaction.canonical() and .sorted_keys build. */
static int
seed_txn_memos(PyObject *txn, PyObject *txn_dict, PyObject *operations)
{
    PyObject *ops_fast, *keys = NULL, *sorted_keys = NULL, *canonical = NULL;
    Py_ssize_t n, j;
    int rc = -1;

    ops_fast = PySequence_Fast(operations, "operations must be a sequence");
    if (ops_fast == NULL) {
        return -1;
    }
    n = PySequence_Fast_GET_SIZE(ops_fast);
    keys = PyList_New(n);
    if (keys == NULL) {
        goto done;
    }
    for (j = 0; j < n; j++) {
        PyObject *op = PySequence_Fast_GET_ITEM(ops_fast, j);
        PyObject *key;

        if (!PyTuple_Check(op) || PyTuple_GET_SIZE(op) < 3) {
            PyErr_SetString(PyExc_TypeError,
                            "operation must be a (key, is_write, value) tuple");
            goto done;
        }
        key = PyTuple_GET_ITEM(op, 0);
        Py_INCREF(key);
        PyList_SET_ITEM(keys, j, key);
    }
    sorted_keys = sorted_distinct_keys(keys);
    canonical = sorted_keys ? transaction_canonical_str(txn) : NULL;
    if (canonical == NULL ||
        PyDict_SetItem(txn_dict, s_canonical_memo, canonical) < 0 ||
        PyDict_SetItem(txn_dict, s_sorted_keys_memo, sorted_keys) < 0) {
        goto done;
    }
    rc = 0;

done:
    Py_XDECREF(canonical);
    Py_XDECREF(sorted_keys);
    Py_XDECREF(keys);
    Py_DECREF(ops_fast);
    return rc;
}

static PyObject *
ck_generate_transactions(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *workload, *origin, *request_id;
    Py_ssize_t count, client_offset;
    int draw_client;

    /* Attribute pulls (once per call, not per transaction). */
    PyObject *client_ids = NULL, *client_starts = NULL, *write_flags = NULL,
        *execution_seconds = NULL, *rw_sets_known = NULL, *next_txn_index = NULL,
        *rng = NULL, *getrandbits = NULL;
    PyObject *offset_bits_obj = NULL, *value_bits_obj = NULL,
        *client_bits_obj = NULL;
    PyObject *result = NULL;
    PyTypeObject *txn_type;
    long hot_count, private_modulus, partition_size, num_records;
    long value_bound, client_bound;
    int uniform_only;
    Py_ssize_t n_ids, n_starts, n_ops, slot;
    int ok = 0;

    (void)self;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "generate_transactions expects (workload, count, "
                        "client_index_offset, origin, request_id, draw_client)");
        return NULL;
    }
    if (g_transaction_type == NULL || g_operation_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ckernel types not configured (call configure_types)");
        return NULL;
    }
    workload = args[0];
    count = PyLong_AsSsize_t(args[1]);
    if (count == -1 && PyErr_Occurred()) {
        return NULL;
    }
    client_offset = PyLong_AsSsize_t(args[2]);
    if (client_offset == -1 && PyErr_Occurred()) {
        return NULL;
    }
    origin = args[3];
    request_id = args[4];
    draw_client = PyObject_IsTrue(args[5]);
    if (draw_client < 0) {
        return NULL;
    }
    txn_type = (PyTypeObject *)g_transaction_type;

    uniform_only = attr_is_true(workload, s_uniform_only);
    if (uniform_only < 0) {
        return NULL;
    }
    if (!uniform_only) {
        PyErr_SetString(PyExc_ValueError,
                        "generate_transactions draws uniform workloads only "
                        "(no conflicts, no zipfian keys)");
        return NULL;
    }
    hot_count = attr_as_long(workload, s_hot_count);
    private_modulus = attr_as_long(workload, s_private_modulus);
    partition_size = attr_as_long(workload, s_partition_size);
    num_records = attr_as_long(workload, s_num_records);
    value_bound = attr_as_long(workload, s_value_bound);
    client_bound = attr_as_long(workload, s_client_bound);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (private_modulus <= 0 || partition_size <= 0 || num_records <= 0 ||
        value_bound <= 0 || client_bound <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "workload bounds must be positive");
        return NULL;
    }

    client_ids = PyObject_GetAttr(workload, s_client_ids);
    client_starts = PyObject_GetAttr(workload, s_client_starts);
    write_flags = PyObject_GetAttr(workload, s_write_flags);
    execution_seconds = PyObject_GetAttr(workload, s_wl_execution_seconds);
    rw_sets_known = PyObject_GetAttr(workload, s_wl_rw_sets_known);
    next_txn_index = PyObject_GetAttr(workload, s_next_txn_index);
    rng = PyObject_GetAttr(workload, s_rng);
    if (client_ids == NULL || client_starts == NULL || write_flags == NULL ||
        execution_seconds == NULL || rw_sets_known == NULL ||
        next_txn_index == NULL || rng == NULL) {
        goto done;
    }
    getrandbits = PyObject_GetAttr(rng, s_getrandbits);
    if (getrandbits == NULL) {
        goto done;
    }
    if (!PyList_Check(client_ids) || !PyTuple_Check(client_starts) ||
        !PyTuple_Check(write_flags)) {
        PyErr_SetString(PyExc_TypeError,
                        "workload attribute layout not recognised");
        goto done;
    }
    n_ids = PyList_GET_SIZE(client_ids);
    n_starts = PyTuple_GET_SIZE(client_starts);
    n_ops = PyTuple_GET_SIZE(write_flags);

    offset_bits_obj = PyLong_FromLong(bit_length(partition_size));
    value_bits_obj = PyLong_FromLong(bit_length(value_bound));
    client_bits_obj = PyLong_FromLong(bit_length(client_bound));
    if (offset_bits_obj == NULL || value_bits_obj == NULL ||
        client_bits_obj == NULL) {
        goto done;
    }

    result = PyTuple_New(count);
    if (result == NULL) {
        goto done;
    }

    for (slot = 0; slot < count; slot++) {
        Py_ssize_t client_index;
        PyObject *client_id = NULL, *txn_id = NULL, *operations = NULL;
        PyObject *index_obj = NULL, *txn = NULL, *txn_dict = NULL;
        long start;
        Py_ssize_t j;

        if (draw_client) {
            long drawn = draw_bounded(getrandbits, client_bits_obj, client_bound);
            if (drawn < 0) {
                goto done;
            }
            client_index = (Py_ssize_t)drawn;
        }
        else {
            client_index = client_offset + slot;
        }

        if (client_index >= 0 && client_index < n_ids) {
            client_id = PyList_GET_ITEM(client_ids, client_index);
            Py_INCREF(client_id);
        }
        else {
            client_id = PyUnicode_FromFormat("client-%zd", client_index);
            if (client_id == NULL) {
                goto done;
            }
        }

        index_obj = PyObject_CallNoArgs(next_txn_index);
        if (index_obj == NULL) {
            Py_DECREF(client_id);
            goto done;
        }
        txn_id = PyUnicode_FromFormat("txn-%S", index_obj);
        Py_DECREF(index_obj);
        if (txn_id == NULL) {
            Py_DECREF(client_id);
            goto done;
        }

        if (client_index >= 0 && client_index < n_starts) {
            start = PyLong_AsLong(PyTuple_GET_ITEM(client_starts, client_index));
            if (start == -1 && PyErr_Occurred()) {
                goto slot_error;
            }
        }
        else {
            start = py_mod((long)client_index * partition_size, num_records);
        }
        operations = PyTuple_New(n_ops);
        if (operations == NULL) {
            goto slot_error;
        }
        for (j = 0; j < n_ops; j++) {
            PyObject *flag = PyTuple_GET_ITEM(write_flags, j);
            PyObject *key, *value, *op;
            long offset_draw, index;
            int is_write = PyObject_IsTrue(flag);

            if (is_write < 0) {
                goto slot_error;
            }
            offset_draw = draw_bounded(getrandbits, offset_bits_obj,
                                       partition_size);
            if (offset_draw < 0) {
                goto slot_error;
            }
            index = hot_count + py_mod(start + offset_draw, private_modulus);
            key = PyUnicode_FromFormat("user%ld", index);
            if (key == NULL) {
                goto slot_error;
            }
            if (is_write) {
                long value_draw = draw_bounded(getrandbits, value_bits_obj,
                                               value_bound);
                if (value_draw < 0) {
                    Py_DECREF(key);
                    goto slot_error;
                }
                value = PyUnicode_FromFormat("val-%ld", value_draw);
                if (value == NULL) {
                    Py_DECREF(key);
                    goto slot_error;
                }
            }
            else {
                value = Py_None;
                Py_INCREF(value);
            }
            op = make_operation(key, is_write ? Py_True : Py_False, value);
            Py_DECREF(key);
            Py_DECREF(value);
            if (op == NULL) {
                goto slot_error;
            }
            PyTuple_SET_ITEM(operations, j, op);
        }

        /* Fast frozen-dataclass construction (see YCSBWorkload). */
        txn = txn_type->tp_new(txn_type, g_empty_tuple, NULL);
        if (txn == NULL) {
            goto slot_error;
        }
        txn_dict = PyObject_GenericGetDict(txn, NULL);
        if (txn_dict == NULL) {
            goto slot_error;
        }
        if (PyDict_SetItem(txn_dict, s_txn_id, txn_id) < 0 ||
            PyDict_SetItem(txn_dict, s_client_id, client_id) < 0 ||
            PyDict_SetItem(txn_dict, s_operations, operations) < 0 ||
            PyDict_SetItem(txn_dict, s_execution_seconds, execution_seconds) < 0 ||
            PyDict_SetItem(txn_dict, s_rw_sets_known, rw_sets_known) < 0 ||
            PyDict_SetItem(txn_dict, s_origin, origin) < 0 ||
            PyDict_SetItem(txn_dict, s_request_id, request_id) < 0) {
            goto slot_error;
        }
        /* Describe the transaction as it is drawn, as the pure-Python
         * generator does: seed its canonical text and sorted keys. */
        if (seed_txn_memos(txn, txn_dict, operations) < 0) {
            goto slot_error;
        }
        Py_DECREF(txn_dict);
        Py_DECREF(operations);
        Py_DECREF(txn_id);
        Py_DECREF(client_id);
        PyTuple_SET_ITEM(result, slot, txn);
        continue;

    slot_error:
        Py_XDECREF(txn_dict);
        Py_XDECREF(txn);
        Py_XDECREF(operations);
        Py_XDECREF(txn_id);
        Py_XDECREF(client_id);
        goto done;
    }
    ok = 1;

done:
    Py_XDECREF(client_ids);
    Py_XDECREF(client_starts);
    Py_XDECREF(write_flags);
    Py_XDECREF(execution_seconds);
    Py_XDECREF(rw_sets_known);
    Py_XDECREF(next_txn_index);
    Py_XDECREF(rng);
    Py_XDECREF(getrandbits);
    Py_XDECREF(offset_bits_obj);
    Py_XDECREF(value_bits_obj);
    Py_XDECREF(client_bits_obj);
    if (!ok) {
        Py_XDECREF(result);
        return NULL;
    }
    return result;
}

/* ----------------------------------------------------------- configuration */

static PyObject *
ck_configure_types(PyObject *self, PyObject *args)
{
    PyObject *operation, *transaction;

    (void)self;
    if (!PyArg_ParseTuple(args, "OO", &operation, &transaction)) {
        return NULL;
    }
    if (!PyType_Check(operation) || !PyType_Check(transaction)) {
        PyErr_SetString(PyExc_TypeError, "configure_types expects two types");
        return NULL;
    }
    if (!PyType_IsSubtype((PyTypeObject *)operation, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "Operation must be a tuple subclass");
        return NULL;
    }
    Py_INCREF(operation);
    Py_XSETREF(g_operation_type, operation);
    Py_INCREF(transaction);
    Py_XSETREF(g_transaction_type, transaction);
    Py_RETURN_NONE;
}

/* ----------------------------------------------------------------- module */

static PyMethodDef ckernel_methods[] = {
    {"configure_types", ck_configure_types, METH_VARARGS,
     "Register (Operation, Transaction) for C construction."},
    {"execute_batch", (PyCFunction)(void (*)(void))ck_execute_batch,
     METH_FASTCALL,
     "Deterministic batch execution: (batch_id, transactions, read_values, "
     "read_versions) -> result_digest_hex."},
    {"generate_transactions",
     (PyCFunction)(void (*)(void))ck_generate_transactions, METH_FASTCALL,
     "YCSB generation: (workload, count, client_index_offset, origin, "
     "request_id, draw_client) -> tuple of Transaction."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._ckernel._impl",
    "Compiled kernel fast path (see repro/kernel.py for the chooser).",
    -1,
    ckernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

static int
intern_all(void)
{
#define INTERN(var, text)                                                     \
    do {                                                                      \
        (var) = PyUnicode_InternFromString(text);                             \
        if ((var) == NULL) {                                                  \
            return -1;                                                        \
        }                                                                     \
    } while (0)

    INTERN(s_txn_id, "txn_id");
    INTERN(s_client_id, "client_id");
    INTERN(s_operations, "operations");
    INTERN(s_execution_seconds, "execution_seconds");
    INTERN(s_rw_sets_known, "rw_sets_known");
    INTERN(s_origin, "origin");
    INTERN(s_request_id, "request_id");
    INTERN(s_sorted_keys_memo, "_sorted_keys");
    INTERN(s_canonical_memo, "_canonical");
    INTERN(s_hexdigest, "hexdigest");
    INTERN(s_uniform_only, "_uniform_only");
    INTERN(s_client_ids, "_client_ids");
    INTERN(s_client_starts, "_client_starts");
    INTERN(s_write_flags, "_write_flags");
    INTERN(s_hot_count, "_hot_count");
    INTERN(s_private_modulus, "_private_modulus");
    INTERN(s_partition_size, "_partition_size");
    INTERN(s_num_records, "_num_records");
    INTERN(s_wl_execution_seconds, "_execution_seconds");
    INTERN(s_wl_rw_sets_known, "_rw_sets_known");
    INTERN(s_next_txn_index, "_next_txn_index");
    INTERN(s_rng, "_rng");
    INTERN(s_getrandbits, "getrandbits");
    INTERN(s_value_bound, "_value_bound");
    INTERN(s_client_bound, "_client_bound");
#undef INTERN
    return 0;
}

PyMODINIT_FUNC
PyInit__impl(void)
{
    PyObject *module, *hashlib;

    if (intern_all() < 0) {
        return NULL;
    }
    g_empty_tuple = PyTuple_New(0);
    if (g_empty_tuple == NULL) {
        return NULL;
    }
    hashlib = PyImport_ImportModule("hashlib");
    if (hashlib == NULL) {
        return NULL;
    }
    g_sha256 = PyObject_GetAttrString(hashlib, "sha256");
    Py_DECREF(hashlib);
    if (g_sha256 == NULL) {
        return NULL;
    }
    module = PyModule_Create(&ckernel_module);
    if (module == NULL) {
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "BUILD_TAG", CKERNEL_BUILD_TAG) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
