#ifndef IRONSAFE_NET_WIRE_H_
#define IRONSAFE_NET_WIRE_H_

#include "common/bytes.h"
#include "common/result.h"
#include "sql/column_batch.h"
#include "sql/eval.h"
#include "sql/table.h"

namespace ironsafe::net {

/// Record-batch serialization for shipping query results between the
/// storage engine and the host engine (paper §5: "the sender serializes
/// records and the receiver deserializes these records to be added to
/// the in-memory table on the host"). The storage side encodes its result
/// units straight from their columns (SerializeBatches); a client
/// response encodes rows (SerializeResult). Both write the same bytes for
/// the same rows. The host decodes the shipped bytes straight into its
/// in-memory table's column batches (DeserializeBatches);
/// DeserializeResult materializes rows for a client.
Bytes SerializeBatches(const sql::VecRel& result);
Bytes SerializeResult(const sql::QueryResult& result);
Result<sql::BatchedRows> DeserializeBatches(const Bytes& wire);
Result<sql::QueryResult> DeserializeResult(const Bytes& wire);

}  // namespace ironsafe::net

#endif  // IRONSAFE_NET_WIRE_H_
