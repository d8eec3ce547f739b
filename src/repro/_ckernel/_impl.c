/* repro._ckernel._impl — hand-written CPython fast path for the
 * handler-bound floors of the simulator the benchmark shows paying (see
 * PERFORMANCE.md):
 *
 *   1. execute_batch      — deterministic batch execution over the
 *                           Operation namedtuple layout and a read's plain
 *                           key -> value / key -> version dicts, with
 *                           single-pass canonical-chunk accumulation, hashed
 *                           once through hashlib.sha256, byte-identical to
 *                           the Python loop;
 *   2. generate_transactions — YCSB transaction generation, drawing through
 *                           the *same* random.Random.getrandbits rejection
 *                           loop as sim/rng.bounded_int_fn so the draw
 *                           sequence is bit-identical, with C-side key/value
 *                           formatting and transaction assembly;
 *   3b. transaction_canonical / batch_canonical — the canonical *strings*
 *                           of Transaction and TransactionBatch, reading and
 *                           seeding the per-transaction memo.
 *
 * Canonical bytes and digests (the paper's H(.)) are deliberately not here:
 * crypto/hashing.py is their one implementation under every REPRO_KERNEL
 * value (a C leg for them bought nothing end to end; see PERFORMANCE.md).
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

#define CKERNEL_BUILD_TAG "repro-ckernel-3"

/* ------------------------------------------------------------------ state */

/* Configured by the chooser's consumers at import time (single-interpreter
 * process-global state). */
static PyObject *g_operation_type = NULL;    /* workload.transactions.Operation */
static PyObject *g_transaction_type = NULL;  /* workload.transactions.Transaction */
static PyObject *g_txn_result_type = NULL;   /* workload.transactions.TransactionResult */

static PyObject *g_sha256 = NULL;            /* hashlib.sha256, bound at init */
static PyObject *g_empty_tuple = NULL;
static PyObject *g_zero = NULL;              /* PyLong 0 (versions default) */

/* Interned attribute names. */
static PyObject *s_txn_id, *s_client_id, *s_operations, *s_execution_seconds,
    *s_rw_sets_known, *s_origin, *s_request_id, *s_sorted_keys_memo,
    *s_canonical_memo, *s_batch_id, *s_transactions, *s_writes,
    *s_read_versions, *s_hexdigest;
static PyObject *s_uniform_only, *s_has_conflicts, *s_conflict_fraction,
    *s_chance, *s_build_operations, *s_client_ids, *s_client_starts,
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

/* ------------------------------------------------ floor 1: execute_batch */

/* Byte-identical mirror of transactions.execute_batch's chunk discipline:
 *   chunks = [batch_id]
 *   per operation: f"{key}={read_values.get(key, '')}"
 *                  plus, for writes, new_value = f"{value}:{txn_id}"
 *   per sorted key: f"{key}@{read_versions.get(key, 0)}"
 *   digest = sha256("".join(chunks).encode("utf-8"))
 */
static PyObject *
ck_execute_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *batch_id, *transactions, *read_values, *read_versions;
    PyObject *txn_fast = NULL, *results = NULL, *digest_hex = NULL, *out = NULL;
    Py_ssize_t txn_count, i;
    buf_t buf;
    PyTypeObject *result_type;

    (void)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "execute_batch expects (batch_id, transactions, "
                        "read_values, read_versions)");
        return NULL;
    }
    if (g_txn_result_type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ckernel types not configured (call configure_types)");
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
    result_type = (PyTypeObject *)g_txn_result_type;

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
    results = PyTuple_New(txn_count);
    if (results == NULL) {
        goto error;
    }

    for (i = 0; i < txn_count; i++) {
        PyObject *txn = PySequence_Fast_GET_ITEM(txn_fast, i);
        PyObject *txn_id = NULL, *operations = NULL, *ops_fast = NULL;
        PyObject *writes = NULL, *observed = NULL, *sorted_keys = NULL;
        PyObject *keys_fast = NULL, *txn_result = NULL, *result_dict = NULL;
        PyObject *key_accum = NULL;
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
        writes = PyDict_New();
        if (writes == NULL) {
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
            if (truth) {
                /* new_value = f"{value}:{txn_id}" */
                PyObject *value_str, *new_value;

                if (PyUnicode_CheckExact(value)) {
                    value_str = value;
                    Py_INCREF(value_str);
                }
                else {
                    value_str = PyObject_Str(value);
                    if (value_str == NULL) {
                        goto txn_error;
                    }
                }
                new_value = PyUnicode_FromFormat("%U:%S", value_str, txn_id);
                Py_DECREF(value_str);
                if (new_value == NULL) {
                    goto txn_error;
                }
                if (PyDict_SetItem(writes, key, new_value) < 0 ||
                    buf_append_str_obj(&buf, new_value) < 0) {
                    Py_DECREF(new_value);
                    goto txn_error;
                }
                Py_DECREF(new_value);
            }
        }

        observed = PyDict_New();
        if (observed == NULL) {
            goto txn_error;
        }
        if (sorted_keys == NULL) {
            /* tuple(sorted({key, ...})) without the property's Python
             * frame: sort, then drop adjacent duplicates — hash-based and
             * comparison-based dedup agree for the str keys used here. */
            Py_ssize_t n, k, kept = 0;

            if (PyList_Sort(key_accum) < 0) {
                goto txn_error;
            }
            n = PyList_GET_SIZE(key_accum);
            for (k = 0; k < n; k++) {
                PyObject *item = PyList_GET_ITEM(key_accum, k);
                int duplicate = 0;

                if (kept > 0) {
                    duplicate = PyObject_RichCompareBool(
                        PyList_GET_ITEM(key_accum, kept - 1), item, Py_EQ);
                    if (duplicate < 0) {
                        goto txn_error;
                    }
                }
                if (!duplicate) {
                    if (k != kept) {
                        Py_INCREF(item);
                        PyList_SetItem(key_accum, kept, item);
                    }
                    kept++;
                }
            }
            if (PyList_SetSlice(key_accum, kept, n, NULL) < 0) {
                goto txn_error;
            }
            sorted_keys = PyList_AsTuple(key_accum);
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

            if (version == NULL) {
                if (PyErr_Occurred()) {
                    goto txn_error;
                }
                version = g_zero;
            }
            if (PyDict_SetItem(observed, key, version) < 0) {
                goto txn_error;
            }
            if (buf_append_str_obj(&buf, key) < 0 ||
                buf_append_char(&buf, '@') < 0) {
                goto txn_error;
            }
            if (PyLong_CheckExact(version)) {
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

        /* Fast frozen-dataclass construction, mirroring the Python loop. */
        txn_result = result_type->tp_new(result_type, g_empty_tuple, NULL);
        if (txn_result == NULL) {
            goto txn_error;
        }
        result_dict = PyObject_GenericGetDict(txn_result, NULL);
        if (result_dict == NULL) {
            goto txn_error;
        }
        if (PyDict_SetItem(result_dict, s_txn_id, txn_id) < 0 ||
            PyDict_SetItem(result_dict, s_writes, writes) < 0 ||
            PyDict_SetItem(result_dict, s_read_versions, observed) < 0) {
            goto txn_error;
        }
        Py_DECREF(result_dict);
        Py_DECREF(keys_fast);
        Py_XDECREF(key_accum);
        Py_DECREF(sorted_keys);
        Py_DECREF(observed);
        Py_DECREF(writes);
        Py_DECREF(ops_fast);
        Py_DECREF(operations);
        Py_DECREF(txn_id);
        PyTuple_SET_ITEM(results, i, txn_result);
        continue;

    txn_error:
        Py_XDECREF(result_dict);
        Py_XDECREF(txn_result);
        Py_XDECREF(keys_fast);
        Py_XDECREF(key_accum);
        Py_XDECREF(sorted_keys);
        Py_XDECREF(observed);
        Py_XDECREF(writes);
        Py_XDECREF(ops_fast);
        Py_XDECREF(operations);
        Py_XDECREF(txn_id);
        goto error;
    }

    digest_hex = buf_sha256_hex(&buf);
    if (digest_hex == NULL) {
        goto error;
    }
    out = PyTuple_Pack(2, digest_hex, results);
    Py_DECREF(digest_hex);

error:
    Py_XDECREF(results);
    Py_XDECREF(txn_fast);
    buf_free(&buf);
    return out;
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

static PyObject *
ck_generate_transactions(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *workload, *origin, *request_id;
    Py_ssize_t count, client_offset;
    int draw_client;

    /* Attribute pulls (once per call, not per transaction). */
    PyObject *chance = NULL, *build_operations = NULL, *client_ids = NULL,
        *client_starts = NULL, *write_flags = NULL,
        *execution_seconds = NULL, *rw_sets_known = NULL, *next_txn_index = NULL,
        *rng = NULL, *getrandbits = NULL, *conflict_fraction = NULL;
    PyObject *offset_bits_obj = NULL, *value_bits_obj = NULL,
        *client_bits_obj = NULL;
    PyObject *result = NULL;
    PyTypeObject *txn_type;
    long hot_count, private_modulus, partition_size, num_records;
    long value_bound, client_bound;
    int uniform_only, has_conflicts;
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
    has_conflicts = attr_is_true(workload, s_has_conflicts);
    if (uniform_only < 0 || has_conflicts < 0) {
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

    chance = PyObject_GetAttr(workload, s_chance);
    build_operations = PyObject_GetAttr(workload, s_build_operations);
    client_ids = PyObject_GetAttr(workload, s_client_ids);
    client_starts = PyObject_GetAttr(workload, s_client_starts);
    write_flags = PyObject_GetAttr(workload, s_write_flags);
    execution_seconds = PyObject_GetAttr(workload, s_wl_execution_seconds);
    rw_sets_known = PyObject_GetAttr(workload, s_wl_rw_sets_known);
    next_txn_index = PyObject_GetAttr(workload, s_next_txn_index);
    conflict_fraction = PyObject_GetAttr(workload, s_conflict_fraction);
    rng = PyObject_GetAttr(workload, s_rng);
    if (chance == NULL || build_operations == NULL || client_ids == NULL ||
        client_starts == NULL || write_flags == NULL ||
        execution_seconds == NULL || rw_sets_known == NULL ||
        next_txn_index == NULL || conflict_fraction == NULL || rng == NULL) {
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

        if (uniform_only) {
            long start;
            Py_ssize_t j;

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
        }
        else {
            int conflicting = 0;

            if (has_conflicts) {
                PyObject *drew = PyObject_CallOneArg(chance, conflict_fraction);
                if (drew == NULL) {
                    goto slot_error;
                }
                conflicting = PyObject_IsTrue(drew);
                Py_DECREF(drew);
                if (conflicting < 0) {
                    goto slot_error;
                }
            }
            {
                PyObject *ci_obj = PyLong_FromSsize_t(client_index);
                if (ci_obj == NULL) {
                    goto slot_error;
                }
                operations = PyObject_CallFunctionObjArgs(
                    build_operations, ci_obj,
                    conflicting ? Py_True : Py_False, NULL);
                Py_DECREF(ci_obj);
                if (operations == NULL) {
                    goto slot_error;
                }
            }
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
    Py_XDECREF(chance);
    Py_XDECREF(build_operations);
    Py_XDECREF(client_ids);
    Py_XDECREF(client_starts);
    Py_XDECREF(write_flags);
    Py_XDECREF(execution_seconds);
    Py_XDECREF(rw_sets_known);
    Py_XDECREF(next_txn_index);
    Py_XDECREF(conflict_fraction);
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

/* ------------------------------------ floor 3b: Transaction.canonical() */

/* f"txn:{txn_id}:{client_id}:{ops}:{execution_seconds}" with
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

static PyObject *
ck_transaction_canonical(PyObject *self, PyObject *txn)
{
    (void)self;
    return transaction_canonical_str(txn);
}

/* Transaction.canonical() including its ``_canonical`` instance-dict memo:
 * return the memo when present, else build the string and memoise it —
 * identical observable behaviour to the Python property, minus the frame. */
static PyObject *
get_txn_canonical(PyObject *txn)
{
    PyObject *txn_dict = PyObject_GenericGetDict(txn, NULL);
    PyObject *memo = NULL;

    if (txn_dict == NULL) {
        PyErr_Clear();
    }
    else {
        memo = PyDict_GetItemWithError(txn_dict, s_canonical_memo);
        Py_XINCREF(memo);
        Py_DECREF(txn_dict);
        if (memo == NULL && PyErr_Occurred()) {
            return NULL;
        }
    }
    if (memo != NULL) {
        return memo;
    }
    memo = transaction_canonical_str(txn);
    if (memo == NULL) {
        return NULL;
    }
    if (PyObject_GenericSetAttr(txn, s_canonical_memo, memo) < 0) {
        PyErr_Clear(); /* memo-less instances just recompute */
    }
    return memo;
}

/* f"batch:{batch_id}:" + "|".join(txn.canonical() for txn in transactions),
 * reading/seeding each transaction's canonical memo along the way. */
static PyObject *
ck_batch_canonical(PyObject *self, PyObject *batch)
{
    PyObject *batch_id = NULL, *transactions = NULL, *txn_fast = NULL,
        *result = NULL;
    Py_ssize_t txn_count, i;
    buf_t buf;

    (void)self;
    if (buf_init(&buf, 4096) < 0) {
        return NULL;
    }
    batch_id = PyObject_GetAttr(batch, s_batch_id);
    transactions = batch_id ? PyObject_GetAttr(batch, s_transactions) : NULL;
    if (transactions == NULL) {
        goto done;
    }
    txn_fast = PySequence_Fast(transactions, "transactions must be a sequence");
    if (txn_fast == NULL) {
        goto done;
    }
    if (buf_append(&buf, "batch:", 6) < 0 ||
        buf_append_str_obj(&buf, batch_id) < 0 ||
        buf_append_char(&buf, ':') < 0) {
        goto done;
    }
    txn_count = PySequence_Fast_GET_SIZE(txn_fast);
    for (i = 0; i < txn_count; i++) {
        PyObject *canonical =
            get_txn_canonical(PySequence_Fast_GET_ITEM(txn_fast, i));
        int failed;

        if (canonical == NULL) {
            goto done;
        }
        failed = (i > 0 && buf_append_char(&buf, '|') < 0) ||
                 buf_append_str_obj(&buf, canonical) < 0;
        Py_DECREF(canonical);
        if (failed) {
            goto done;
        }
    }
    result = PyUnicode_DecodeUTF8(buf.data, buf.len, NULL);

done:
    Py_XDECREF(txn_fast);
    Py_XDECREF(transactions);
    Py_XDECREF(batch_id);
    buf_free(&buf);
    return result;
}

/* ----------------------------------------------------------- configuration */

static PyObject *
ck_configure_types(PyObject *self, PyObject *args)
{
    PyObject *operation, *transaction, *txn_result;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOO", &operation, &transaction, &txn_result)) {
        return NULL;
    }
    if (!PyType_Check(operation) || !PyType_Check(transaction) ||
        !PyType_Check(txn_result)) {
        PyErr_SetString(PyExc_TypeError, "configure_types expects three types");
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
    Py_INCREF(txn_result);
    Py_XSETREF(g_txn_result_type, txn_result);
    Py_RETURN_NONE;
}

/* ----------------------------------------------------------------- module */

static PyMethodDef ckernel_methods[] = {
    {"configure_types", ck_configure_types, METH_VARARGS,
     "Register (Operation, Transaction, TransactionResult) for C construction."},
    {"execute_batch", (PyCFunction)(void (*)(void))ck_execute_batch,
     METH_FASTCALL,
     "Deterministic batch execution: (batch_id, transactions, read_values, "
     "read_versions) -> (result_digest_hex, txn_results)."},
    {"generate_transactions",
     (PyCFunction)(void (*)(void))ck_generate_transactions, METH_FASTCALL,
     "YCSB generation: (workload, count, client_index_offset, origin, "
     "request_id, draw_client) -> tuple of Transaction."},
    {"transaction_canonical", ck_transaction_canonical, METH_O,
     "Build a Transaction's canonical string (uncached)."},
    {"batch_canonical", ck_batch_canonical, METH_O,
     "Build a TransactionBatch's canonical string (reads/seeds the "
     "per-transaction canonical memos)."},
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
    INTERN(s_batch_id, "batch_id");
    INTERN(s_transactions, "transactions");
    INTERN(s_writes, "writes");
    INTERN(s_read_versions, "read_versions");
    INTERN(s_hexdigest, "hexdigest");
    INTERN(s_uniform_only, "_uniform_only");
    INTERN(s_has_conflicts, "_has_conflicts");
    INTERN(s_conflict_fraction, "_conflict_fraction");
    INTERN(s_chance, "_chance");
    INTERN(s_build_operations, "_build_operations");
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
    g_zero = PyLong_FromLong(0);
    if (g_empty_tuple == NULL || g_zero == NULL) {
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
