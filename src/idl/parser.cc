#include "idl/parser.hh"

#include <unordered_map>
#include <unordered_set>

namespace dagger::idl {

std::size_t
fieldKindSize(FieldKind kind)
{
    switch (kind) {
      case FieldKind::Bool:
      case FieldKind::Int8:
      case FieldKind::UInt8:
      case FieldKind::CharArray:
        return 1;
      case FieldKind::Int16:
      case FieldKind::UInt16:
        return 2;
      case FieldKind::Int32:
      case FieldKind::UInt32:
      case FieldKind::Float32:
      case FieldKind::Enum:
        return 4;
      case FieldKind::Int64:
      case FieldKind::UInt64:
      case FieldKind::Float64:
        return 8;
    }
    return 0;
}

const char *
fieldKindCpp(FieldKind kind)
{
    switch (kind) {
      case FieldKind::Bool:
        return "bool";
      case FieldKind::Int8:
        return "std::int8_t";
      case FieldKind::Int16:
        return "std::int16_t";
      case FieldKind::Int32:
        return "std::int32_t";
      case FieldKind::Int64:
        return "std::int64_t";
      case FieldKind::UInt8:
        return "std::uint8_t";
      case FieldKind::UInt16:
        return "std::uint16_t";
      case FieldKind::UInt32:
        return "std::uint32_t";
      case FieldKind::UInt64:
        return "std::uint64_t";
      case FieldKind::Float32:
        return "float";
      case FieldKind::Float64:
        return "double";
      case FieldKind::CharArray:
        return "char";
      case FieldKind::Enum:
        return "<enum>"; // resolved via Field::enumName
    }
    return "?";
}

const MessageDef *
IdlFile::findMessage(const std::string &name) const
{
    for (const MessageDef &m : messages)
        if (m.name == name)
            return &m;
    return nullptr;
}

const EnumDef *
IdlFile::findEnum(const std::string &name) const
{
    for (const EnumDef &e : enums)
        if (e.name == name)
            return &e;
    return nullptr;
}

namespace {

const std::unordered_map<std::string, FieldKind> kScalarTypes = {
    {"bool", FieldKind::Bool},       {"int8", FieldKind::Int8},
    {"int16", FieldKind::Int16},     {"int32", FieldKind::Int32},
    {"int64", FieldKind::Int64},     {"uint8", FieldKind::UInt8},
    {"uint16", FieldKind::UInt16},   {"uint32", FieldKind::UInt32},
    {"uint64", FieldKind::UInt64},   {"float32", FieldKind::Float32},
    {"float64", FieldKind::Float64},
};

class Parser
{
  public:
    explicit Parser(std::vector<Token> toks) : _toks(std::move(toks)) {}

    IdlFile
    run()
    {
        IdlFile file;
        while (peek().kind != TokKind::End) {
            const Token &t = expect(TokKind::Ident,
                                    "'Message', 'Service' or 'option'");
            if (t.text == "Message" || t.text == "message") {
                file.messages.push_back(parseMessage(file));
            } else if (t.text == "Enum" || t.text == "enum") {
                file.enums.push_back(parseEnum());
            } else if (t.text == "Service" || t.text == "service") {
                file.services.push_back(parseService());
            } else if (t.text == "option") {
                parseOption(file);
            } else {
                throw IdlError{"expected 'Message', 'Service' or "
                               "'option', got '" + t.text + "'",
                               t.line, t.col};
            }
        }
        check(file);
        return file;
    }

  private:
    const Token &peek() const { return _toks[_pos]; }
    const Token &next() { return _toks[_pos++]; }

    const Token &
    expect(TokKind kind, const char *what)
    {
        const Token &t = next();
        if (t.kind != kind)
            throw IdlError{std::string("expected ") + what + ", got '" +
                               (t.kind == TokKind::End ? "<eof>" : t.text) +
                               "'",
                           t.line, t.col};
        return t;
    }

    void
    parseOption(IdlFile &file)
    {
        const Token &name = expect(TokKind::Ident, "option name");
        if (name.text != "namespace" && name.text != "fn_base")
            throw IdlError{"unknown option '" + name.text + "'",
                           name.line, name.col};
        expect(TokKind::Equals, "'='");
        const Token &value = next();
        std::string text;
        if (value.kind == TokKind::Ident) {
            text = value.text;
        } else if (value.kind == TokKind::Number) {
            text = std::to_string(value.number);
        } else {
            throw IdlError{"expected option value", value.line, value.col};
        }
        if (name.text == "fn_base") {
            if (value.kind != TokKind::Number || value.number > 0xfff0)
                throw IdlError{"fn_base must be a number <= 65520",
                               value.line, value.col};
            _fnBase = static_cast<std::uint16_t>(value.number);
        }
        expect(TokKind::Semicolon, "';'");
        file.options[name.text] = text;
    }

    MessageDef
    parseMessage(const IdlFile &file)
    {
        MessageDef msg;
        const Token &name = expect(TokKind::Ident, "message name");
        msg.name = name.text;
        msg.line = name.line;
        expect(TokKind::LBrace, "'{'");
        while (peek().kind != TokKind::RBrace)
            msg.fields.push_back(parseField(file));
        next(); // consume '}'
        return msg;
    }

    EnumDef
    parseEnum()
    {
        EnumDef def;
        const Token &name = expect(TokKind::Ident, "enum name");
        def.name = name.text;
        def.line = name.line;
        expect(TokKind::LBrace, "'{'");
        while (peek().kind != TokKind::RBrace) {
            Enumerator e;
            const Token &en = expect(TokKind::Ident, "enumerator name");
            e.name = en.text;
            e.line = en.line;
            expect(TokKind::Equals, "'='");
            const Token &val = expect(TokKind::Number, "enumerator value");
            e.value = static_cast<std::int64_t>(val.number);
            expect(TokKind::Semicolon, "';'");
            def.values.push_back(std::move(e));
        }
        next(); // consume '}'
        if (def.values.empty())
            throw IdlError{"enum '" + def.name + "' has no enumerators",
                           def.line, 1};
        return def;
    }

    Field
    parseField(const IdlFile &file)
    {
        Field f;
        const Token &type = expect(TokKind::Ident, "field type");
        f.line = type.line;
        if (file.findEnum(type.text)) {
            f.kind = FieldKind::Enum;
            f.enumName = type.text;
            const Token &fname0 = expect(TokKind::Ident, "field name");
            f.name = fname0.text;
            expect(TokKind::Semicolon, "';'");
            return f;
        }
        if (type.text == "char") {
            f.kind = FieldKind::CharArray;
            expect(TokKind::LBracket, "'[' after char");
            const Token &len = expect(TokKind::Number, "array length");
            f.arrayLen = static_cast<std::size_t>(len.number);
            if (f.arrayLen == 0)
                throw IdlError{"char array length must be positive",
                               len.line, len.col};
            expect(TokKind::RBracket, "']'");
        } else {
            auto it = kScalarTypes.find(type.text);
            if (it == kScalarTypes.end())
                throw IdlError{"unknown field type '" + type.text + "'",
                               type.line, type.col};
            f.kind = it->second;
        }
        const Token &fname = expect(TokKind::Ident, "field name");
        f.name = fname.text;
        expect(TokKind::Semicolon, "';'");
        return f;
    }

    ServiceDef
    parseService()
    {
        ServiceDef svc;
        const Token &name = expect(TokKind::Ident, "service name");
        svc.name = name.text;
        svc.line = name.line;
        expect(TokKind::LBrace, "'{'");
        std::uint16_t next_id = static_cast<std::uint16_t>(_fnBase + 1);
        while (peek().kind != TokKind::RBrace) {
            const Token &kw = expect(TokKind::Ident, "'rpc'");
            if (kw.text != "rpc")
                throw IdlError{"expected 'rpc', got '" + kw.text + "'",
                               kw.line, kw.col};
            RpcDef rpc;
            const Token &rname = expect(TokKind::Ident, "rpc name");
            rpc.name = rname.text;
            rpc.line = rname.line;
            expect(TokKind::LParen, "'('");
            rpc.requestType = expect(TokKind::Ident, "request type").text;
            expect(TokKind::RParen, "')'");
            const Token &ret = expect(TokKind::Ident, "'returns'");
            if (ret.text != "returns")
                throw IdlError{"expected 'returns', got '" + ret.text + "'",
                               ret.line, ret.col};
            expect(TokKind::LParen, "'('");
            rpc.responseType = expect(TokKind::Ident, "response type").text;
            rpc.oneWay = rpc.responseType == "void";
            expect(TokKind::RParen, "')'");
            expect(TokKind::Semicolon, "';'");
            rpc.fnId = next_id++;
            svc.rpcs.push_back(std::move(rpc));
        }
        next(); // consume '}'
        return svc;
    }

    void
    check(const IdlFile &file)
    {
        std::unordered_set<std::string> names;
        for (const EnumDef &e : file.enums) {
            if (!names.insert(e.name).second)
                throw IdlError{"duplicate name '" + e.name + "'", e.line,
                               1};
            std::unordered_set<std::string> enumerators;
            for (const Enumerator &v : e.values)
                if (!enumerators.insert(v.name).second)
                    throw IdlError{"duplicate enumerator '" + v.name +
                                       "' in enum '" + e.name + "'",
                                   v.line, 1};
        }
        for (const MessageDef &m : file.messages) {
            if (!names.insert(m.name).second)
                throw IdlError{"duplicate message '" + m.name + "'", m.line,
                               1};
            std::unordered_set<std::string> fields;
            for (const Field &f : m.fields)
                if (!fields.insert(f.name).second)
                    throw IdlError{"duplicate field '" + f.name +
                                       "' in message '" + m.name + "'",
                                   f.line, 1};
            if (m.byteSize() > 0xffff)
                throw IdlError{"message '" + m.name +
                                   "' exceeds the 65535-byte payload limit",
                               m.line, 1};
            if (m.fields.empty())
                throw IdlError{"message '" + m.name + "' has no fields",
                               m.line, 1};
        }
        std::unordered_set<std::string> svc_names;
        for (const ServiceDef &s : file.services) {
            if (names.count(s.name) || !svc_names.insert(s.name).second)
                throw IdlError{"duplicate name '" + s.name + "'", s.line, 1};
            std::unordered_set<std::string> rpc_names;
            for (const RpcDef &r : s.rpcs) {
                if (!rpc_names.insert(r.name).second)
                    throw IdlError{"duplicate rpc '" + r.name +
                                       "' in service '" + s.name + "'",
                                   r.line, 1};
                if (!file.findMessage(r.requestType))
                    throw IdlError{"rpc '" + r.name +
                                       "' uses undeclared request type '" +
                                       r.requestType + "'",
                                   r.line, 1};
                if (!r.oneWay && !file.findMessage(r.responseType))
                    throw IdlError{"rpc '" + r.name +
                                       "' uses undeclared response type '" +
                                       r.responseType + "'",
                                   r.line, 1};
            }
            if (s.rpcs.empty())
                throw IdlError{"service '" + s.name + "' has no rpcs",
                               s.line, 1};
        }
    }

    std::vector<Token> _toks;
    std::size_t _pos = 0;
    std::uint16_t _fnBase = 0;
};

} // namespace

IdlFile
parse(const std::string &src)
{
    return Parser(lex(src)).run();
}

} // namespace dagger::idl
