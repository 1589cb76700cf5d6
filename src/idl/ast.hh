/**
 * @file
 * AST for the Dagger Interface Definition Language (§4.2, Listing 1).
 *
 * The IDL follows the paper's protobuf-inspired scheme:
 *
 *   Message GetRequest {
 *       int32 timestamp;
 *       char[32] key;
 *   }
 *
 *   Service KeyValueStore {
 *       rpc get(GetRequest) returns(GetResponse);
 *   }
 *
 * Messages are flat, fixed-size records ("our current implementation
 * only supports RPCs with continuous arguments that do not contain
 * references to other objects", §4.5) — so generated C++ messages are
 * packed PODs and serialization is a memcpy.
 */

#ifndef DAGGER_IDL_AST_HH
#define DAGGER_IDL_AST_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dagger::idl {

/** Scalar field types supported by the IDL. */
enum class FieldKind {
    Enum, ///< named IDL enum (wire width: int32)
    Bool,
    Int8,
    Int16,
    Int32,
    Int64,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
    Float32,
    Float64,
    CharArray, ///< char[N] fixed-size string/blob
};

/** Size in bytes of one element of a field kind. */
std::size_t fieldKindSize(FieldKind kind);

/** C++ type spelling for a field kind (element type for arrays). */
const char *fieldKindCpp(FieldKind kind);

/** One message field. */
struct Field
{
    FieldKind kind = FieldKind::Int32;
    std::size_t arrayLen = 0;  ///< nonzero only for CharArray
    std::string enumName;      ///< set when the field's type is an enum
    std::string name;
    unsigned line = 0;

    std::size_t
    byteSize() const
    {
        return kind == FieldKind::CharArray ? arrayLen
                                            : fieldKindSize(kind);
    }
};

/** One enumerator of an IDL enum. */
struct Enumerator
{
    std::string name;
    std::int64_t value = 0;
    unsigned line = 0;
};

/** An enum definition (generated as a C++ `enum class : int32_t`). */
struct EnumDef
{
    std::string name;
    std::vector<Enumerator> values;
    unsigned line = 0;
};

/** A message definition. */
struct MessageDef
{
    std::string name;
    std::vector<Field> fields;
    unsigned line = 0;

    /** Packed byte size of the message. */
    std::size_t
    byteSize() const
    {
        std::size_t n = 0;
        for (const Field &f : fields)
            n += f.byteSize();
        return n;
    }
};

/** One rpc declaration inside a service. */
struct RpcDef
{
    std::string name;
    std::string requestType;
    std::string responseType; ///< "void" for one-way RPCs
    std::uint16_t fnId = 0;   ///< assigned sequentially from fn_base+1
    bool oneWay = false;      ///< `returns(void)`: no response at all
    unsigned line = 0;
};

/** A service definition. */
struct ServiceDef
{
    std::string name;
    std::vector<RpcDef> rpcs;
    unsigned line = 0;
};

/** A parsed IDL file. */
struct IdlFile
{
    std::vector<EnumDef> enums;
    std::vector<MessageDef> messages;
    std::vector<ServiceDef> services;

    const EnumDef *findEnum(const std::string &name) const;

    /**
     * File-level options:
     *  - `option namespace = my_ns;`  default C++ namespace for the
     *    generated code (a --ns on the CLI still wins);
     *  - `option fn_base = 100;`      function ids of subsequent
     *    services start at fn_base + 1 (lets two services share one
     *    server without id collisions).
     */
    std::map<std::string, std::string> options;

    const MessageDef *findMessage(const std::string &name) const;
};

} // namespace dagger::idl

#endif // DAGGER_IDL_AST_HH
